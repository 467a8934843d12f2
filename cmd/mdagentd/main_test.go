package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/registry"
	"mdagent/internal/store"
	"mdagent/internal/transport"
)

// syncBuffer is a goroutine-safe bytes.Buffer for daemon output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// bootRegistry serves a standalone registry center (one with no peers)
// on 127.0.0.1:0 and returns its address and its index for assertions.
func bootRegistry(t *testing.T) (string, *registry.Registry) {
	t.Helper()
	node, err := transport.ListenTCP("registry-center", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	center := cluster.NewCenter("", store.OpenMemory(), node.Endpoint(), cluster.Config{}).Serve(node.Endpoint())
	return node.Addr(), center.Registry()
}

// startDaemon runs the mdagentd run() in a goroutine and returns its
// bound address once ready.
func startDaemon(t *testing.T, out *syncBuffer, args ...string) string {
	t.Helper()
	stop := make(chan struct{})
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(args, out, func(addr string) { addrc <- addr }, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("daemon %v exited: %v", args, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("daemon %v did not shut down", args)
		}
	})
	select {
	case addr := <-addrc:
		return addr
	case err := <-errc:
		t.Fatalf("daemon %v failed to start: %v", args, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon %v never became ready", args)
	}
	return ""
}

// TestEndToEndMigrationOverTCP boots a registry center plus two agent
// daemons on ephemeral TCP ports in-process and drives one follow-me
// migration from hostA to hostB — the full cmd wiring, no simulation.
func TestEndToEndMigrationOverTCP(t *testing.T) {
	regAddr, reg := bootRegistry(t)

	var outB syncBuffer
	addrB := startDaemon(t, &outB,
		"-host", "hostB", "-listen", "127.0.0.1:0",
		"-registry", regAddr, "-install", "smart-media-player")

	// The source daemon runs the player and migrates it, then returns.
	var outA syncBuffer
	err := run([]string{
		"-host", "hostA", "-listen", "127.0.0.1:0",
		"-registry", regAddr,
		"-peer", "hostB=" + addrB,
		"-run", "smart-media-player", "-song-bytes", "100000",
		"-migrate-to", "hostB",
	}, &outA, nil, nil)
	if err != nil {
		t.Fatalf("source daemon: %v\noutput:\n%s", err, outA.String())
	}
	if !strings.Contains(outA.String(), "migrated smart-media-player to hostB") {
		t.Fatalf("no migration line in output:\n%s", outA.String())
	}

	// The registry records the app's new home as running.
	rec, found, err := reg.LookupApp("smart-media-player", "hostB")
	if err != nil || !found {
		t.Fatalf("registry lookup after migration: found=%v err=%v", found, err)
	}
	if !rec.Running {
		t.Fatalf("hostB record not marked running: %+v", rec)
	}
	// And the source record is demoted to a non-running installation.
	if src, found, _ := reg.LookupApp("smart-media-player", "hostA"); found && src.Running {
		t.Fatalf("hostA record still marked running after follow-me: %+v", src)
	}
}

// TestFederatedDaemonsGossip boots a federated center and two daemons in
// federated mode, then waits for gossip to converge: hostA has no -peer,
// so it can only learn of hostB through hostB's SWIM probes.
func TestFederatedDaemonsGossip(t *testing.T) {
	node, err := transport.ListenTCP("registry@lab", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	cluster.NewCenter("lab", store.OpenMemory(), node.Endpoint(), cluster.Config{}).Serve(node.Endpoint())

	var outA, outB syncBuffer
	addrA := startDaemon(t, &outA,
		"-host", "hostA", "-listen", "127.0.0.1:0",
		"-registry", node.Addr(), "-space", "lab",
		"-probe", "5ms", "-suspicion", "50ms")
	_ = startDaemon(t, &outB,
		"-host", "hostB", "-listen", "127.0.0.1:0",
		"-registry", node.Addr(), "-space", "lab",
		"-peer", "hostA="+addrA,
		"-probe", "5ms", "-suspicion", "50ms")

	deadline := time.Now().Add(10 * time.Second)
	for {
		if strings.Contains(outA.String(), "member hostB -> alive") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hostA never learned hostB via gossip:\n%s", outA.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunRejectsBadFlags covers the flag-parsing surface.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out, nil, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-install", "bogus"}, &out, nil, nil); err == nil {
		t.Fatal("unknown -install accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-run", "bogus"}, &out, nil, nil); err == nil {
		t.Fatal("unknown -run accepted")
	}
}

// TestMigrateToWithoutRunIsTyped checks that -migrate-to of an app the
// daemon is not running fails the way `mdctl migrate` does: with
// ctl.ErrAppNotFound, not an untyped engine error.
func TestMigrateToWithoutRunIsTyped(t *testing.T) {
	regAddr, _ := bootRegistry(t)
	var out syncBuffer
	err := run([]string{
		"-host", "hostA", "-listen", "127.0.0.1:0",
		"-registry", regAddr, "-migrate-to", "hostB",
	}, &out, nil, nil)
	if !errors.Is(err, ctl.ErrAppNotFound) {
		t.Fatalf("err = %v, want ctl.ErrAppNotFound\noutput:\n%s", err, out.String())
	}
}

// TestDaemonReplicatesStateOverTCP boots a federated center and one
// daemon with -replicate, then watches the daemon's snapshot arrive at
// the center over the wire protocol — and reads it back through a
// SnapshotClient, the same path a remote failover planner would use.
func TestDaemonReplicatesStateOverTCP(t *testing.T) {
	node, err := transport.ListenTCP("registry@lab", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	center := cluster.NewCenter("lab", store.OpenMemory(), node.Endpoint(), cluster.Config{})
	center.Serve(node.Endpoint())

	var outA syncBuffer
	startDaemon(t, &outA,
		"-host", "hostA", "-listen", "127.0.0.1:0",
		"-registry", node.Addr(), "-space", "lab",
		"-run", "smart-media-player", "-song-bytes", "100000",
		"-replicate", "5ms")

	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec, ok := center.LatestSnapshot("smart-media-player"); ok {
			ts, err := rec.Snapshot()
			if err != nil {
				t.Fatalf("replicated record does not reassemble: %v", err)
			}
			if ts.Wrap.App != "smart-media-player" || rec.Host != "hostA" {
				t.Fatalf("unexpected record: app=%q host=%q", ts.Wrap.App, rec.Host)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never replicated over TCP:\n%s", outA.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Read it back over the wire, as a remote restore would.
	probe, err := transport.ListenTCP("probe@test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.Close() })
	probe.AddPeer("registry@lab", node.Addr())
	cli := cluster.NewSnapshotClient(probe.Endpoint(), "registry@lab")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, found, err := cli.LatestSnapshot(ctx, "smart-media-player")
	if err != nil || !found {
		t.Fatalf("remote snapshot fetch: found=%v err=%v", found, err)
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("fetched record fails verification: %v", err)
	}
}

// TestDaemonLifecycleOverCtl drives run / stop / run again / migrate
// through ctl.Client against in-process daemons, so the backend's
// delegating arms and the host runtime behind them run under -race and
// coverage, not only behind the out-of-process mdctl e2e.
func TestDaemonLifecycleOverCtl(t *testing.T) {
	regAddr, reg := bootRegistry(t)
	var outA, outB syncBuffer
	addrB := startDaemon(t, &outB,
		"-host", "hostB", "-listen", "127.0.0.1:0",
		"-registry", regAddr, "-install", "smart-media-player")
	addrA := startDaemon(t, &outA,
		"-host", "hostA", "-listen", "127.0.0.1:0",
		"-registry", regAddr, "-peer", "hostB="+addrB)

	probe, err := transport.ListenTCP("probe@test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.Close() })
	probe.AddPeer(ctl.Alias, addrA)
	cli := ctl.NewClient(probe.Endpoint(), ctl.Alias)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const player = "smart-media-player"
	running := func(host string) bool {
		rec, found, err := reg.LookupApp(player, host)
		if err != nil {
			t.Fatal(err)
		}
		return found && rec.Running
	}

	if err := cli.RunApp(ctx, player, ""); !errors.Is(err, ctl.ErrAppNotFound) {
		t.Fatalf("run before install: want ErrAppNotFound, got %v", err)
	}
	if err := cli.InstallApp(ctx, player, "hostZ"); !errors.Is(err, ctl.ErrUnknownHost) {
		t.Fatalf("install addressed to another host: want ErrUnknownHost, got %v", err)
	}
	if err := cli.InstallApp(ctx, "no-such-app", ""); !errors.Is(err, ctl.ErrUnknownApp) {
		t.Fatalf("install without skeleton or bundle: want ErrUnknownApp, got %v", err)
	}
	if err := cli.InstallApp(ctx, player, ""); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := cli.RunApp(ctx, player, "hostA"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !running("hostA") {
		t.Fatal("run did not register a running record")
	}
	if err := cli.RunApp(ctx, player, ""); err == nil {
		t.Fatal("second run of a running app accepted")
	}
	if !running("hostA") {
		t.Fatal("refused duplicate run disturbed the running record")
	}
	if err := cli.StopApp(ctx, player, ""); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, found, _ := reg.LookupApp(player, "hostA"); found {
		t.Fatal("stop left the registry record behind")
	}
	if err := cli.StopApp(ctx, player, ""); !errors.Is(err, ctl.ErrAppNotFound) {
		t.Fatalf("second stop: want ErrAppNotFound, got %v", err)
	}
	if err := cli.RunApp(ctx, player, ""); err != nil {
		t.Fatalf("run after stop: %v", err)
	}

	if _, err := cli.Migrate(ctx, ctl.MigrateRequest{App: "no-such-app", To: "hostB"}); !errors.Is(err, ctl.ErrAppNotFound) {
		t.Fatalf("migrate of an app not running here: want ErrAppNotFound, got %v", err)
	}
	if _, err := cli.Migrate(ctx, ctl.MigrateRequest{App: player, To: "hostZ"}); !errors.Is(err, ctl.ErrUnknownHost) {
		t.Fatalf("migrate to an unreachable host: want ErrUnknownHost, got %v", err)
	}
	if !running("hostA") {
		t.Fatal("failed migrate lost the app")
	}
	res, err := cli.Migrate(ctx, ctl.MigrateRequest{App: player, To: "hostB", Static: true})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if res.App != player || res.From != "hostA" || res.To != "hostB" || res.BytesMoved == 0 {
		t.Fatalf("migrate result: %+v", res)
	}
	if !running("hostB") || running("hostA") {
		t.Fatalf("after migrate: hostA running=%v hostB running=%v", running("hostA"), running("hostB"))
	}
}
