package core

import (
	"context"
	"crypto/ed25519"
	"errors"
	"testing"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/registry"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// flakyCatalog fails its first `fails` RegisterApp calls, as a center that
// is briefly down would.
type flakyCatalog struct {
	migrate.Catalog
	fails int
}

func (c *flakyCatalog) RegisterApp(ctx context.Context, rec registry.AppRecord) error {
	if c.fails > 0 {
		c.fails--
		return errors.New("center down")
	}
	return c.Catalog.RegisterApp(ctx, rec)
}

// standaloneHost builds a HostRuntime the way cmd/mdagentd does — no
// Middleware around it — over an in-process registry; wrap decorates the
// catalog the host registers at.
func standaloneHost(t *testing.T, wrap func(migrate.Catalog) migrate.Catalog) (*HostRuntime, *registry.Registry, *ctxkernel.Kernel) {
	t.Helper()
	reg, err := registry.New(store.OpenMemory())
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach(migrate.EndpointName("hostA"), "")
	if err != nil {
		t.Fatal(err)
	}
	cat := wrap(migrate.Direct{R: reg})
	eng := migrate.NewEngine("hostA", ep, nil, nil, cat, migrate.DefaultCosts())
	kernel := ctxkernel.NewKernel()
	rt := NewHostRuntime("hostA", "lab", eng, media.NewLibrary("hostA"), cat, kernel, &vclock.Real{}, "test", nil, bundle.Resolver{})
	return rt, reg, kernel
}

// TestRunRollsBackFailedRegistration: a Run whose registration fails must
// leave the engine empty, so the retry succeeds instead of wedging on
// "already running" against a registry that says nothing runs here.
func TestRunRollsBackFailedRegistration(t *testing.T) {
	rt, reg, kernel := standaloneHost(t, func(c migrate.Catalog) migrate.Catalog {
		return &flakyCatalog{Catalog: c, fails: 1}
	})
	eng := rt.Engine
	started := 0
	kernel.Subscribe(ctxkernel.TopicAppStarted, func(ctxkernel.Event) { started++ })

	ctx := context.Background()
	song := media.GenerateFile("song1", 1000, 3)
	if err := rt.Run(ctx, demoapps.NewMediaPlayer("hostA", song)); err == nil {
		t.Fatal("Run succeeded although registration failed")
	}
	if _, ok := eng.App("smart-media-player"); ok {
		t.Fatal("failed Run left the instance in the engine")
	}
	if started != 0 {
		t.Fatalf("failed Run published %d app.started events", started)
	}
	if err := rt.Run(ctx, demoapps.NewMediaPlayer("hostA", song)); err != nil {
		t.Fatalf("retried Run: %v", err)
	}
	if rec, found, _ := reg.LookupApp("smart-media-player", "hostA"); !found || !rec.Running {
		t.Fatalf("retried Run did not register a running record: found=%v rec=%+v", found, rec)
	}
	if started != 1 {
		t.Fatalf("want exactly one app.started, got %d", started)
	}
}

// TestRelaunchIsIdempotent: failover retries may relaunch the same app on
// the same survivor twice; the second call must adopt the live instance
// (resuming it if an aborted attempt left it suspended), not fail as a
// duplicate run. Without an installed factory the instance is rebuilt
// bare from the replicated description.
func TestRelaunchIsIdempotent(t *testing.T) {
	rt, _, _ := standaloneHost(t, func(c migrate.Catalog) migrate.Catalog { return c })
	rec := registry.AppRecord{Name: "smart-media-player", Host: "dead-host", Description: demoapps.MediaPlayerDesc()}
	got, restored, err := rt.Relaunch(rec, nil)
	if err != nil || restored {
		t.Fatalf("relaunch: restored=%v err=%v", restored, err)
	}
	if got.Host != "hostA" || got.Space != "lab" || !got.Running {
		t.Fatalf("relaunch record: %+v", got)
	}
	inst, ok := rt.Engine.App(rec.Name)
	if !ok || inst.State() != app.Running {
		t.Fatalf("relaunch left no running instance (found=%v)", ok)
	}
	if err := inst.Suspend(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Relaunch(rec, nil); err != nil {
		t.Fatalf("second relaunch: %v", err)
	}
	if again, _ := rt.Engine.App(rec.Name); again != inst || inst.State() != app.Running {
		t.Fatal("second relaunch did not adopt and resume the existing instance")
	}
}

func notepadManifest(name string) bundle.Manifest {
	return bundle.Manifest{
		App: name,
		Description: wsdl.Description{
			Name: name,
			Services: []wsdl.Service{{
				Name:  "notepad",
				Ports: []wsdl.Port{{Name: "main", Operations: []wsdl.Operation{{Name: "edit"}}}},
			}},
		},
		Components: []bundle.ComponentSpec{
			{Name: "document", Kind: app.KindData},
			{Name: "session", Kind: app.KindState},
		},
	}
}

// packNotepad signs a notepad bundle whose initial state has the session
// cursor at 42.
func packNotepad(t *testing.T, name string, priv ed25519.PrivateKey) []byte {
	t.Helper()
	m := notepadManifest(name)
	a := app.New(m.App, "packer", m.Description)
	sess := app.NewState("session")
	sess.Set("cursor", "42")
	for _, c := range []app.Component{app.NewBlob("document", app.KindData, []byte("dear diary")), sess} {
		if err := a.AddComponent(c); err != nil {
			t.Fatal(err)
		}
	}
	w, err := a.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bundle.Pack(m, &w, priv)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBundleLifecycleInProcess drives the bundle path the daemon shares
// (HostRuntime.InstallBundle / RunInstalled) through the in-process
// control backend on a federated deployment: push lands at the first
// space's center, the install happens on a host of another space.
func TestBundleLifecycleInProcess(t *testing.T) {
	pub, priv, err := bundle.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, strangerPriv, err := bundle.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	mw, err := New(Config{Seed: 5, Cluster: clusterTestConfig(), TrustedKeys: []ed25519.PublicKey{pub}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	for _, sp := range []struct{ space, host string }{{"lab1", "h1"}, {"lab2", "h2"}} {
		if err := mw.AddSpace(sp.space); err != nil {
			t.Fatal(err)
		}
		if err := mw.AddGateway("gw-"+sp.space, sp.space, netsim.Pentium4_1700()); err != nil {
			t.Fatal(err)
		}
		if _, err := mw.AddHost(sp.host, sp.space, netsim.Pentium4_1700(), testDevice(sp.host), 0); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	b := mw.ControlBackend()
	rt2, _ := mw.Host("h2")
	lab2, _ := mw.Cluster.Center("lab2")
	const name = "bundled-notepad"

	t.Run("unknown app", func(t *testing.T) {
		if err := b.InstallBundle(ctx, name, "h2"); !errors.Is(err, ctl.ErrUnknownApp) {
			t.Fatalf("install of a never-pushed bundle: want ErrUnknownApp, got %v", err)
		}
		if err := b.InstallBundle(ctx, name, "nowhere"); !errors.Is(err, ctl.ErrUnknownHost) {
			t.Fatalf("install on an unknown host: want ErrUnknownHost, got %v", err)
		}
	})

	t.Run("push list install run", func(t *testing.T) {
		raw := packNotepad(t, name, priv)
		pushes, installs := bundle.Pushes.Value(), bundle.Installs.Value()
		if err := b.PushBundle(ctx, name, raw); err != nil {
			t.Fatalf("push: %v", err)
		}
		if got := bundle.Pushes.Value() - pushes; got != 1 {
			t.Fatalf("pushes moved by %d, want 1", got)
		}
		infos, err := b.ListBundles(ctx)
		if err != nil || len(infos) != 1 || infos[0].Name != name || infos[0].Bytes != int64(len(raw)) {
			t.Fatalf("list: %+v err=%v", infos, err)
		}
		if err := b.Install(ctx, name, "h2"); err != nil {
			t.Fatalf("install: %v", err)
		}
		if got := bundle.Installs.Value() - installs; got != 1 {
			t.Fatalf("mdagent_bundle_installs_total moved by %d, want 1", got)
		}
		if rec, found, _ := lab2.LookupApp(ctx, name, "h2"); !found || rec.Running || len(rec.Components) != 2 {
			t.Fatalf("installation record: found=%v rec=%+v", found, rec)
		}
		if err := b.RunApp(ctx, name, "h2"); err != nil {
			t.Fatalf("run: %v", err)
		}
		inst, ok := rt2.Engine.App(name)
		if !ok {
			t.Fatal("run left no instance on h2")
		}
		c, _ := inst.Component("session")
		if v, _ := c.(*app.StateComponent).Get("cursor"); v != "42" {
			t.Fatalf("instance does not carry the bundle's initial state: cursor=%q", v)
		}
		if err := b.RunApp(ctx, "no-such-app", "h2"); !errors.Is(err, ctl.ErrAppNotFound) {
			t.Fatalf("run without a factory: want ErrAppNotFound, got %v", err)
		}
	})

	t.Run("unresolvable secret", func(t *testing.T) {
		const name = "secretive-notepad"
		m := notepadManifest(name)
		m.Secrets = []bundle.SecretRef{{Key: "token", Ref: "ref://file/absent"}}
		raw, err := bundle.Pack(m, nil, priv)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.PushBundle(ctx, name, raw); err != nil {
			t.Fatalf("push: %v", err)
		}
		rejected := bundle.Rejected.Value()
		if err := b.InstallBundle(ctx, name, "h2"); !errors.Is(err, bundle.ErrSecret) {
			t.Fatalf("want ErrSecret, got %v", err)
		}
		if got := bundle.Rejected.Value() - rejected; got != 1 {
			t.Fatalf("rejections moved by %d, want 1", got)
		}
		if _, ok := rt2.Engine.Factory(name); ok {
			t.Fatal("uninstantiable bundle installed a factory")
		}
	})

	t.Run("untrusted key", func(t *testing.T) {
		// Stored straight at h2's own center, as federation replication
		// from an unvetted center would: the install gate must still hold.
		const name = "stranger-notepad"
		raw := packNotepad(t, name, strangerPriv)
		rejected := bundle.Rejected.Value()
		if err := b.PushBundle(ctx, name, raw); !errors.Is(err, bundle.ErrUntrustedKey) {
			t.Fatalf("push: want ErrUntrustedKey, got %v", err)
		}
		if got := bundle.Rejected.Value() - rejected; got != 1 {
			t.Fatalf("refused push moved rejections by %d, want 1", got)
		}
		if err := lab2.PutBundle(ctx, name, raw); err != nil {
			t.Fatal(err)
		}
		rejected = bundle.Rejected.Value()
		if err := b.InstallBundle(ctx, name, "h2"); !errors.Is(err, bundle.ErrUntrustedKey) {
			t.Fatalf("want ErrUntrustedKey, got %v", err)
		}
		if got := bundle.Rejected.Value() - rejected; got != 1 {
			t.Fatalf("rejections moved by %d, want 1", got)
		}
		if _, ok := rt2.Engine.Factory(name); ok {
			t.Fatal("rejected bundle installed a factory")
		}
		if _, found, _ := lab2.LookupApp(ctx, name, "h2"); found {
			t.Fatal("rejected bundle registered an installation")
		}
	})
}
