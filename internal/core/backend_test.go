package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/demoapps"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// duplicateHeads holds two heads per app, out of order, as a union over
// centers caught mid-replication does.
func duplicateHeads(context.Context) ([]state.SnapshotHead, error) {
	return []state.SnapshotHead{
		{App: "b", Host: "hostA", Seq: 1},
		{App: "a", Host: "hostA", Seq: 3},
		{App: "b", Host: "hostA", Seq: 5},
		{App: "a", Host: "hostA", Seq: 2},
	}, nil
}

// registryBundles backs a Deployment's bundle sources with reg.
func registryBundles(d *Deployment, reg *cluster.Center) {
	d.PutBundle = reg.PutBundle
	d.GetBundle = func(ctx context.Context, _, name string) ([]byte, bool, error) { return reg.GetBundle(ctx, name) }
	d.ListBundles = reg.Bundles
}

// serveDeployment serves Backend(d) through a real ctl.Server on fab and
// returns a client speaking to it.
func serveDeployment(t *testing.T, fab *transport.LocalFabric, d Deployment) *ctl.Client {
	t.Helper()
	srvEp, err := fab.Attach("contract-srv", "")
	if err != nil {
		t.Fatal(err)
	}
	srv := ctl.NewServer(Backend(d)).Serve(srvEp)
	t.Cleanup(srv.Close)
	cliEp, err := fab.Attach("contract-cli", "")
	if err != nil {
		t.Fatal(err)
	}
	return ctl.NewClient(cliEp, "contract-srv")
}

// middlewareShape is a clustered two-host middleware with the player
// running on hostA.
func middlewareShape(t *testing.T) (*transport.LocalFabric, Deployment) {
	mw, err := New(Config{Seed: 3, Cluster: clusterTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	if err := mw.AddSpace("lab"); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"hostA", "hostB"} {
		if _, err := mw.AddHost(h, "lab", netsim.Pentium4_1700(), testDevice(h), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.RunApp(context.Background(), "hostA", demoapps.MediaPlayerSkeleton("hostA")); err != nil {
		t.Fatal(err)
	}
	d := mw.deployment()
	d.Heads = duplicateHeads
	return mw.Fabric, d
}

// daemonShape is one host over a fake catalog (an in-process registry),
// with the player running and a compiled-in skeleton table.
func daemonShape(t *testing.T) (*transport.LocalFabric, Deployment) {
	rt, reg, kernel := standaloneHost(t, func(c migrate.Catalog) migrate.Catalog { return c })
	if err := rt.Run(context.Background(), demoapps.MediaPlayerSkeleton("hostA")); err != nil {
		t.Fatal(err)
	}
	d := Deployment{
		Info:      ctl.ServerInfo{Role: "host", Host: "hostA", Space: "lab"},
		Hosts:     func() []*HostRuntime { return []*HostRuntime{rt} },
		Members:   func() []cluster.Member { return []cluster.Member{{ID: "hostA", Space: "lab"}} },
		Records:   func(context.Context) ([]registry.AppRecord, error) { return reg.Apps(nil), nil },
		Heads:     duplicateHeads,
		Skeletons: map[string]func(string) *app.Application{"smart-media-player": demoapps.MediaPlayerSkeleton},
		Kernel:    kernel,
	}
	registryBundles(&d, reg)
	return transport.NewLocalFabric(nil), d
}

// registryShape is a center: records, heads and bundles, no hosts.
func registryShape(t *testing.T) (*transport.LocalFabric, Deployment) {
	_, reg, kernel := standaloneHost(t, func(c migrate.Catalog) migrate.Catalog { return c })
	d := Deployment{
		Info:    ctl.ServerInfo{Role: "registry", Space: "lab"},
		Records: func(context.Context) ([]registry.AppRecord, error) { return reg.Apps(nil), nil },
		Heads:   duplicateHeads,
		Kernel:  kernel,
	}
	registryBundles(&d, reg)
	return transport.NewLocalFabric(nil), d
}

// TestBackendContract pins the typed answer of every control-plane op on
// the three Deployment shapes: what a registry does not serve is
// ErrUnsupported, and the endpoints that drive hosts address them, refuse
// and install the same way.
func TestBackendContract(t *testing.T) {
	const player = "smart-media-player"
	type call func(ctx context.Context, cli *ctl.Client) error
	ops := []struct {
		name string
		call call
		// want per shape: middleware, daemon, registry (nil = success).
		want [3]error
	}{
		{"run on another host", func(ctx context.Context, c *ctl.Client) error {
			return c.RunApp(ctx, player, "nowhere")
		}, [3]error{ctl.ErrUnknownHost, ctl.ErrUnknownHost, ctl.ErrUnsupported}},
		{"stop an app that is not running", func(ctx context.Context, c *ctl.Client) error {
			return c.StopApp(ctx, "idle-app", "")
		}, [3]error{ctl.ErrAppNotFound, ctl.ErrAppNotFound, ctl.ErrUnsupported}},
		{"stop on another host", func(ctx context.Context, c *ctl.Client) error {
			return c.StopApp(ctx, player, "nowhere")
		}, [3]error{ctl.ErrUnknownHost, ctl.ErrUnknownHost, ctl.ErrUnsupported}},
		{"migrate from another host", func(ctx context.Context, c *ctl.Client) error {
			_, err := c.Migrate(ctx, ctl.MigrateRequest{App: player, Host: "nowhere", To: "hostB"})
			return err
		}, [3]error{ctl.ErrUnknownHost, ctl.ErrUnknownHost, ctl.ErrUnsupported}},
		{"migrate to an unknown host", func(ctx context.Context, c *ctl.Client) error {
			_, err := c.Migrate(ctx, ctl.MigrateRequest{App: player, To: "nowhere"})
			return err
		}, [3]error{ctl.ErrUnknownHost, ctl.ErrUnknownHost, ctl.ErrUnsupported}},
		{"install on another host", func(ctx context.Context, c *ctl.Client) error {
			return c.InstallApp(ctx, player, "nowhere")
		}, [3]error{ctl.ErrUnknownHost, ctl.ErrUnknownHost, ctl.ErrUnsupported}},
		{"install an unknown app", func(ctx context.Context, c *ctl.Client) error {
			return c.InstallApp(ctx, "no-such-app", "hostA")
		}, [3]error{ctl.ErrUnknownApp, ctl.ErrUnknownApp, ctl.ErrUnsupported}},
		{"install a bundle nobody pushed", func(ctx context.Context, c *ctl.Client) error {
			return c.InstallBundle(ctx, "no-such-app", "hostA")
		}, [3]error{ctl.ErrUnknownApp, ctl.ErrUnknownApp, ctl.ErrUnsupported}},
		{"stats", func(ctx context.Context, c *ctl.Client) error {
			_, err := c.Stats(ctx)
			return err
		}, [3]error{nil, nil, ctl.ErrUnsupported}},
		{"trace", func(ctx context.Context, c *ctl.Client) error {
			_, err := c.Trace(ctx, "never-migrated")
			return err
		}, [3]error{ctl.ErrAppNotFound, ctl.ErrAppNotFound, ctl.ErrUnsupported}},
		{"members", func(ctx context.Context, c *ctl.Client) error {
			_, err := c.Members(ctx)
			return err
		}, [3]error{nil, nil, ctl.ErrUnsupported}},
	}
	shapes := []struct {
		name  string
		build func(*testing.T) (*transport.LocalFabric, Deployment)
	}{
		{"middleware", middlewareShape},
		{"daemon", daemonShape},
		{"registry", registryShape},
	}
	for i, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			fab, d := shape.build(t)
			t.Cleanup(func() { fab.Close() })
			cli := serveDeployment(t, fab, d)
			ctx := context.Background()
			for _, op := range ops {
				err := op.call(ctx, cli)
				if want := op.want[i]; (want == nil && err != nil) || (want != nil && !errors.Is(err, want)) {
					t.Errorf("%s: got %v, want %v", op.name, err, want)
				}
			}
			if d.Hosts != nil {
				// The failed migration left the player where it was.
				rt, err := pickHost(d.Hosts(), "", player)
				if err != nil || rt.Host != "hostA" {
					t.Errorf("player after refused migrations: host %v, err %v", rt, err)
				}
			}

			pushes, rejected := bundle.Pushes.Value(), bundle.Rejected.Value()
			if err := cli.PushBundle(ctx, "evil", []byte("garbage bytes")); !errors.Is(err, bundle.ErrNotBundle) {
				t.Errorf("garbage push: got %v, want ErrNotBundle", err)
			}
			if got := bundle.Rejected.Value() - rejected; got != 1 {
				t.Errorf("garbage push moved rejections by %d, want 1", got)
			}
			if got := bundle.Pushes.Value() - pushes; got != 0 {
				t.Errorf("garbage push moved pushes by %d, want 0", got)
			}
			if infos, err := cli.Bundles(ctx); err != nil || len(infos) != 0 {
				t.Errorf("bundle list after a refused push: %+v err=%v", infos, err)
			}

			heads, err := cli.Snapshots(ctx)
			want := []state.SnapshotHead{{App: "a", Host: "hostA", Seq: 3}, {App: "b", Host: "hostA", Seq: 5}}
			if err != nil || !reflect.DeepEqual(heads, want) {
				t.Errorf("snapshots: got %+v err=%v, want %+v", heads, err, want)
			}
		})
	}
}

// TestBackendInstallsSkeletonByName: a compiled-in skeleton installs by
// name and registers the factory instance's description and components.
func TestBackendInstallsSkeletonByName(t *testing.T) {
	rt, reg, kernel := standaloneHost(t, func(c migrate.Catalog) migrate.Catalog { return c })
	b := Backend(Deployment{
		Hosts:     func() []*HostRuntime { return []*HostRuntime{rt} },
		Skeletons: map[string]func(string) *app.Application{"ubiquitous-slideshow": demoapps.SlideShowSkeleton},
		Kernel:    kernel,
	})
	ctx := context.Background()
	if err := b.Install(ctx, "ubiquitous-slideshow", ""); err != nil {
		t.Fatal(err)
	}
	rec, found, err := reg.LookupApp(context.Background(), "ubiquitous-slideshow", "hostA")
	if err != nil || !found || rec.Running {
		t.Fatalf("installation record: found=%v err=%v rec=%+v", found, err, rec)
	}
	if !reflect.DeepEqual(rec.Components, demoapps.SlideShowSkeletonComponents()) ||
		!reflect.DeepEqual(rec.Description, demoapps.SlideShowDesc()) {
		t.Fatalf("installation record %+v does not match the skeleton", rec)
	}
	if err := b.RunApp(ctx, "ubiquitous-slideshow", ""); err != nil {
		t.Fatalf("run the installed skeleton: %v", err)
	}
	if _, ok := rt.Engine.App("ubiquitous-slideshow"); !ok {
		t.Fatal("run left no instance")
	}
}
