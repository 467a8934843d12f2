package mdagent_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mdagent"
	"mdagent/internal/ctl"
	"mdagent/internal/demoapps"
	"mdagent/internal/transport"
)

// newControlDeployment builds a clustered two-host deployment with state
// replication, serves its control plane on the local fabric, and returns
// a client speaking it.
func newControlDeployment(t *testing.T) (*mdagent.Middleware, *mdagent.Client) {
	t.Helper()
	mw, err := mdagent.New(mdagent.Config{Seed: 21, Cluster: &mdagent.ClusterConfig{
		ProbeInterval:     2 * time.Millisecond,
		ProbeTimeout:      25 * time.Millisecond,
		SuspicionTimeout:  40 * time.Millisecond,
		SyncInterval:      5 * time.Millisecond,
		ReplicateState:    true,
		ReplicateInterval: 5 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	dev := mdagent.DeviceProfile{ScreenWidth: 1024, ScreenHeight: 768, MemoryMB: 512, HasAudio: true, HasDisplay: true}
	if err := mw.AddSpace("lab"); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.AddHost("hostA", "lab", mdagent.Pentium4_1700(), dev, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.AddHost("hostB", "lab", mdagent.PentiumM_1600(), dev, 0); err != nil {
		t.Fatal(err)
	}
	song := mdagent.GenerateFile("track", 200_000, 5)
	hostA, _ := mw.Host("hostA")
	hostA.Library.Add(song)
	if err := mw.RunApp(context.Background(), "hostA", demoapps.NewMediaPlayer("hostA", song)); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterResource(demoapps.MusicResource(song, "hostA")); err != nil {
		t.Fatal(err)
	}
	if err := mw.InstallApp(context.Background(), "hostB", "smart-media-player", demoapps.MediaPlayerDesc(),
		demoapps.MediaPlayerSkeletonComponents(),
		func(h string) *mdagent.Application { return demoapps.MediaPlayerSkeleton(h) }); err != nil {
		t.Fatal(err)
	}

	srvEp, err := mw.Fabric.Attach("ctl-server", "")
	if err != nil {
		t.Fatal(err)
	}
	srv := mw.ServeControl(srvEp)
	t.Cleanup(srv.Close)
	cliEp, err := mw.Fabric.Attach("ctl-client", "")
	if err != nil {
		t.Fatal(err)
	}
	return mw, mdagent.NewControlClient(cliEp, "ctl-server")
}

// TestControlPlaneInProcess drives the whole control plane over the
// in-process fabric: introspection, a migration with a typed Watch
// event, stop/run lifecycle, and the typed-error contract.
func TestControlPlaneInProcess(t *testing.T) {
	_, cli := newControlDeployment(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	info, err := cli.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "middleware" || info.Proto != mdagent.ProtoVersion {
		t.Fatalf("Info = %+v", info)
	}

	// Membership converges to both hosts alive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		members, err := cli.Members(ctx)
		if err != nil {
			t.Fatal(err)
		}
		alive := 0
		for _, m := range members {
			if m.State == "alive" {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never converged: %+v", members)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Apps lists the running player, eventually with a snapshot head
	// (the replicator publishes within an interval or two).
	for {
		apps, err := cli.Apps(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var player *mdagent.AppInfo
		for i := range apps {
			if apps[i].Name == "smart-media-player" && apps[i].Host == "hostA" {
				player = &apps[i]
			}
		}
		if player != nil && player.Running && player.Snapshot != nil {
			if player.Snapshot.Seq == 0 && player.Snapshot.Bytes == 0 {
				t.Fatalf("snapshot head is empty: %+v", player.Snapshot)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("apps never showed a replicated player: %+v", apps)
		}
		time.Sleep(2 * time.Millisecond)
	}
	heads, err := cli.Snapshots(ctx)
	if err != nil || len(heads) == 0 {
		t.Fatalf("Snapshots = %v, err %v", heads, err)
	}
	if heads[0].App != "smart-media-player" || heads[0].Bytes <= 0 {
		t.Fatalf("snapshot head = %+v", heads[0])
	}
	stats, err := cli.Stats(ctx)
	if err != nil || len(stats) != 2 {
		t.Fatalf("Stats = %v, err %v", stats, err)
	}

	// Watch app.* and drive a migration through the control plane; the
	// stream must deliver the typed migrated event.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	events, err := cli.Watch(wctx, "app.*")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Migrate(ctx, mdagent.MigrateRequest{App: "smart-media-player", To: "hostB"})
	if err != nil {
		t.Fatal(err)
	}
	if res.To != "hostB" || res.Total() <= 0 {
		t.Fatalf("MigrateResult = %+v", res)
	}
	var migrated *mdagent.MigratedEvent
	timeout := time.After(10 * time.Second)
	for migrated == nil {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("watch stream closed before the migrated event")
			}
			if m, ok := ev.Typed.(mdagent.MigratedEvent); ok {
				migrated = &m
			}
		case <-timeout:
			t.Fatal("no migrated event on the watch stream")
		}
	}
	if migrated.App != "smart-media-player" || migrated.Dest != "hostB" {
		t.Fatalf("migrated event = %+v", migrated)
	}

	// Lifecycle: stop the migrated app, then relaunch it from hostB's
	// installed skeleton — both through the control plane.
	if err := cli.StopApp(ctx, "smart-media-player", ""); err != nil {
		t.Fatal(err)
	}
	if err := cli.RunApp(ctx, "smart-media-player", "hostB"); err != nil {
		t.Fatal(err)
	}
	apps, err := cli.Apps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	running := false
	for _, a := range apps {
		if a.Name == "smart-media-player" && a.Host == "hostB" && a.Running {
			running = true
		}
	}
	if !running {
		t.Fatalf("relaunched app not running on hostB: %+v", apps)
	}

	// Typed error contract across the wire.
	if _, err := cli.Migrate(ctx, mdagent.MigrateRequest{App: "smart-media-player", To: "nowhere"}); !errors.Is(err, mdagent.ErrUnknownHost) {
		t.Fatalf("migrate to unknown host error = %v, want ErrUnknownHost", err)
	}
	if err := cli.RunApp(ctx, "no-such-app", "hostA"); !errors.Is(err, mdagent.ErrAppNotFound) {
		t.Fatalf("run unknown app error = %v, want ErrAppNotFound", err)
	}
	// Install on a host with neither a compiled-in factory nor a pushed
	// bundle is the typed unknown-app refusal (not ErrUnsupported — the
	// op exists, the artifact doesn't), and errors.Is survives the wire.
	if err := cli.InstallApp(ctx, "smart-media-player", "hostA"); !errors.Is(err, mdagent.ErrUnknownApp) {
		t.Fatalf("in-process install error = %v, want ErrUnknownApp", err)
	}
}

// TestControlPlaneVersionNegotiation sends a future-version frame to a
// live server: it must answer a typed ErrVersion refusal, not a gob
// parse error — the compatibility contract future clients rely on.
func TestControlPlaneVersionNegotiation(t *testing.T) {
	mw, cli := newControlDeployment(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	probeEp, err := mw.Fabric.Attach("version-probe", "")
	if err != nil {
		t.Fatal(err)
	}
	body, err := transport.Encode(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	// A frame from a hypothetical protocol v42 client.
	_, err = probeEp.Request(ctx, "ctl-server", ctl.MsgApps, transport.SealV(42, body))
	if !errors.Is(err, mdagent.ErrVersion) {
		t.Fatalf("future-version frame error = %v, want ErrVersion", err)
	}
	// The same contract holds on the existing snapshot/registry wire.
	_, err = probeEp.Request(ctx, "registry-center", "registry.lookup-app", transport.SealV(42, body))
	if !errors.Is(err, mdagent.ErrVersion) {
		t.Fatalf("registry future-version frame error = %v, want ErrVersion", err)
	}
	// A current-version client keeps working after the refusals.
	if _, err := cli.Info(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestControlPlaneCancellation pins the cancellation contract: a
// canceled Watch closes its stream promptly, and a canceled WaitAppOn
// returns context.Canceled.
func TestControlPlaneCancellation(t *testing.T) {
	mw, cli := newControlDeployment(t)

	wctx, wcancel := context.WithCancel(context.Background())
	events, err := cli.Watch(wctx, "*")
	if err != nil {
		t.Fatal(err)
	}
	wcancel()
	select {
	case _, ok := <-events:
		for ok {
			_, ok = <-events
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not close after cancellation")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// The player runs on hostA; waiting for it on hostB blocks until
		// the cancel.
		done <- mw.WaitAppOn(ctx, "smart-media-player", "hostB", time.Minute)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled WaitAppOn error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled WaitAppOn did not return promptly")
	}
}
