package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/wsdl"
)

func clusterTestConfig() *cluster.Config {
	return &cluster.Config{
		ProbeInterval:    2 * time.Millisecond,
		ProbeTimeout:     25 * time.Millisecond,
		SuspicionTimeout: 40 * time.Millisecond,
		SyncInterval:     5 * time.Millisecond,
		Seed:             11,
	}
}

func testDevice(host string) wsdl.DeviceProfile {
	return wsdl.DeviceProfile{
		Host: host, ScreenWidth: 1024, ScreenHeight: 768,
		MemoryMB: 512, HasAudio: true, HasDisplay: true,
	}
}

// newFederatedDeployment builds the churn testbed: three smart spaces,
// one host each, the media player running on h1 with its skeleton
// installed on h2 and h3.
func newFederatedDeployment(t *testing.T) *Middleware {
	t.Helper()
	return newFederatedDeploymentCfg(t, clusterTestConfig())
}

func newFederatedDeploymentCfg(t *testing.T, cfg *cluster.Config) *Middleware {
	t.Helper()
	return newFederatedDeploymentSong(t, cfg, 2_000_000)
}

// newFederatedDeploymentSong additionally sizes the player's song — the
// state-pipeline tests use a small one so that frame decodes inside
// 1 ms-poll conditions stay cheap under the race detector.
func newFederatedDeploymentSong(t *testing.T, cfg *cluster.Config, songBytes int64) *Middleware {
	t.Helper()
	mw, err := New(Config{Seed: 5, Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	hosts := []string{"h1", "h2", "h3"}
	for i, host := range hosts {
		space := []string{"lab1", "lab2", "lab3"}[i]
		if err := mw.AddSpace(space); err != nil {
			t.Fatal(err)
		}
		// Inter-space traffic (gossip probes, federation digests, clone
		// wraps) requires each space to expose a gateway (paper Fig. 1).
		if err := mw.AddGateway("gw-"+space, space, netsim.Pentium4_1700()); err != nil {
			t.Fatal(err)
		}
		if _, err := mw.AddHost(host, space, netsim.Pentium4_1700(), testDevice(host), 0); err != nil {
			t.Fatal(err)
		}
	}
	song := media.GenerateFile("song1", songBytes, 3)
	rt1, _ := mw.Host("h1")
	rt1.Library.Add(song)
	if err := mw.RunApp(context.Background(), "h1", demoapps.NewMediaPlayer("h1", song)); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterResource(demoapps.MusicResource(song, "h1")); err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"h2", "h3"} {
		if err := mw.InstallApp(context.Background(), host, "smart-media-player", demoapps.MediaPlayerDesc(),
			demoapps.MediaPlayerSkeletonComponents(),
			func(h string) *app.Application { return demoapps.MediaPlayerSkeleton(h) }); err != nil {
			t.Fatal(err)
		}
	}
	return mw
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFederatedFailoverRehomesAcrossSpaces is the acceptance scenario:
// three federated spaces, the app's host killed by netsim fault
// injection, membership converging to dead within the suspicion window,
// and the app automatically re-homed — its registry records intact on a
// *different* space's center.
func TestFederatedFailoverRehomesAcrossSpaces(t *testing.T) {
	mw := newFederatedDeployment(t)
	ctx := context.Background()

	// Replication: h1's running record reaches lab3's center.
	lab3, ok := mw.Cluster.Center("lab3")
	if !ok {
		t.Fatal("no center for lab3")
	}
	// Both the running record AND the resource must replicate before the
	// kill: anything that only ever lived on the dying center is lost
	// (eventual consistency is not durability).
	waitFor(t, 5*time.Second, "replication of h1's records to lab3", func() bool {
		rec, found, _ := lab3.LookupApp(ctx, "smart-media-player", "h1")
		if !found || !rec.Running {
			return false
		}
		return len(lab3.ResourcesOnHost("h1")) == 1
	})

	// Membership: everyone sees three alive.
	for _, host := range []string{"h1", "h2", "h3"} {
		node, _ := mw.Cluster.Node(host)
		waitFor(t, 5*time.Second, host+" seeing 3 alive", func() bool {
			return len(node.AliveHosts()) == 3
		})
	}

	// Watch for the failure-detection and re-homing events.
	var evMu sync.Mutex
	events := make(map[string]ctxkernel.Event)
	mw.Kernel.Subscribe("cluster.*", func(ev ctxkernel.Event) {
		evMu.Lock()
		events[ev.Topic] = ev
		evMu.Unlock()
	})

	// Kill h1. Survivors must converge to dead within the configured
	// suspicion timeout (generous wall-time bound: the probe interval is
	// 2 ms and suspicion 40 ms, so seconds of slack are orders of margin).
	if err := mw.Net.SetHostDown("h1", true); err != nil {
		t.Fatal(err)
	}
	detectStart := time.Now()
	n2, _ := mw.Cluster.Node("h2")
	n3, _ := mw.Cluster.Node("h3")
	waitFor(t, 5*time.Second, "survivors declaring h1 dead", func() bool {
		m2, _ := n2.Member("h1")
		m3, _ := n3.Member("h1")
		return m2.State == cluster.StateDead && m3.State == cluster.StateDead
	})
	t.Logf("membership converged to dead in %v", time.Since(detectStart))

	// The app lands on a survivor. Both carry the same skeleton, so the
	// deterministic tiebreak picks h2.
	if err := mw.WaitAppOn(context.Background(), "smart-media-player", "h2", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Registry records intact on a different space's center: lab3 (whose
	// host h3 neither died nor received the app) sees the new home and no
	// stale record for the dead host.
	waitFor(t, 5*time.Second, "lab3 center seeing the re-homed record", func() bool {
		rec, found, _ := lab3.LookupApp(ctx, "smart-media-player", "h2")
		if !found || !rec.Running || rec.Space != "lab2" {
			return false
		}
		_, stale, _ := lab3.LookupApp(ctx, "smart-media-player", "h1")
		return !stale
	})
	// The resource registered on h1 is still known federation-wide.
	if res := lab3.ResourcesOnHost("h1"); len(res) != 1 {
		t.Fatalf("music resource lost from replicated registry: %v", res)
	}

	// The kernel narrated the incident. The rehomed event is published
	// once the relaunch and its registry write have returned, so it can
	// trail the app's arrival and the record's replication.
	var re ctxkernel.Event
	waitFor(t, 5*time.Second, "a cluster.rehomed event", func() bool {
		evMu.Lock()
		defer evMu.Unlock()
		var ok bool
		re, ok = events[ctxkernel.TopicClusterRehomed]
		return ok
	})
	evMu.Lock()
	defer evMu.Unlock()
	if _, ok := events[ctxkernel.TopicClusterHostDead]; !ok {
		t.Error("no cluster.host-dead event published")
	}
	if re.Attr("app") != "smart-media-player" || re.Attr("from") != "h1" || re.Attr("to") != "h2" {
		t.Fatalf("rehomed event attrs = %v", re.Attrs)
	}
}

// TestIsolatedHostDoesNotStealApps drives the split-brain guard: the
// killed host's own node sees everyone else dead but has no quorum, so
// it must not re-home the survivors' applications onto itself.
func TestIsolatedHostDoesNotStealApps(t *testing.T) {
	mw := newFederatedDeployment(t)

	// Run a second app on h2 so the isolated h1 would have something to
	// steal if the guard failed.
	song := media.GenerateFile("song2", 1_000_000, 4)
	rt2, _ := mw.Host("h2")
	rt2.Library.Add(song)
	if err := mw.RunApp(context.Background(), "h2", demoapps.NewHandheldPlayer("h2", song)); err != nil {
		t.Fatal(err)
	}

	for _, host := range []string{"h1", "h2", "h3"} {
		node, _ := mw.Cluster.Node(host)
		waitFor(t, 5*time.Second, host+" seeing 3 alive", func() bool {
			return len(node.AliveHosts()) == 3
		})
	}
	if err := mw.Net.SetHostDown("h1", true); err != nil {
		t.Fatal(err)
	}
	n1, _ := mw.Cluster.Node("h1")
	waitFor(t, 5*time.Second, "isolated h1 losing quorum", func() bool {
		return !n1.HasQuorum()
	})
	// Give h1 ample time to (wrongly) act; the app must stay put.
	time.Sleep(100 * time.Millisecond)
	rt1, _ := mw.Host("h1")
	if _, stolen := rt1.Engine.App("handheld-player"); stolen {
		t.Fatal("isolated host re-homed a survivor's app onto itself")
	}
	if _, ok := rt2.Engine.App("handheld-player"); !ok {
		t.Fatal("survivor lost its app")
	}
}

// TestFailoverRestoresReplicatedState is the state-pipeline acceptance
// scenario: with Config.Cluster.ReplicateState on, the player's host is
// killed mid-run and the re-homed instance must resume with the exact
// component and coordinator state of the last replicated snapshot — a
// value-level check, not just liveness.
func TestFailoverRestoresReplicatedState(t *testing.T) {
	cfg := clusterTestConfig()
	cfg.ReplicateState = true
	cfg.ReplicateInterval = 2 * time.Millisecond
	mw := newFederatedDeploymentSong(t, cfg, 64_000)
	ctx := context.Background()

	rt1, _ := mw.Host("h1")
	if rt1.Replicator == nil {
		t.Fatal("ReplicateState on but h1 has no replicator")
	}
	inst, ok := rt1.Engine.App("smart-media-player")
	if !ok {
		t.Fatal("player not running on h1")
	}

	// Membership: everyone sees three alive before the kill.
	for _, host := range []string{"h1", "h2", "h3"} {
		node, _ := mw.Cluster.Node(host)
		waitFor(t, 5*time.Second, host+" seeing 3 alive", func() bool {
			return len(node.AliveHosts()) == 3
		})
	}

	// Watch the state-pipeline events.
	var evMu sync.Mutex
	events := make(map[string]ctxkernel.Event)
	mw.Kernel.Subscribe("cluster.*", func(ev ctxkernel.Event) {
		evMu.Lock()
		events[ev.Topic] = ev
		evMu.Unlock()
	})

	// Plant in-flight state: playback progressed to 424242 ms.
	st, ok := inst.Component("playback-state")
	if !ok {
		t.Fatal("player has no playback-state component")
	}
	st.(*app.StateComponent).Set("positionMs", "424242")
	inst.Coordinator().Set("positionMs", "424242")

	// The snapshot must reach a center that will SURVIVE the kill (lab3)
	// with the planted value before h1 dies — replication, not luck.
	// Decode only when a new sequence lands: frames are full app wraps.
	lab3, _ := mw.Cluster.Center("lab3")
	var lastSeq uint64
	waitFor(t, 30*time.Second, "snapshot with planted state on lab3", func() bool {
		sr, ok := lab3.LatestSnapshot("smart-media-player")
		if !ok || sr.Seq == lastSeq {
			return false
		}
		lastSeq = sr.Seq
		ts, err := sr.Snapshot()
		if err != nil {
			return false
		}
		return ts.Wrap.CoordState["positionMs"] == "424242"
	})

	// Kill h1; the app must land on h2 (same deterministic tiebreak as
	// the skeleton scenario).
	if err := mw.Net.SetHostDown("h1", true); err != nil {
		t.Fatal(err)
	}
	// Generous window: under -race with the whole suite in parallel on a
	// loaded runner, conviction + restore can overshoot 5s.
	if err := mw.WaitAppOn(context.Background(), "smart-media-player", "h2", 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// Value-level check: the re-homed instance carries the replicated
	// component AND coordinator state, not skeleton defaults.
	rt2, _ := mw.Host("h2")
	restored, _ := rt2.Engine.App("smart-media-player")
	rst, ok := restored.Component("playback-state")
	if !ok {
		t.Fatal("re-homed instance has no playback-state (skeleton relaunch, state lost)")
	}
	if v, _ := rst.(*app.StateComponent).Get("positionMs"); v != "424242" {
		t.Fatalf("re-homed component state positionMs = %q, want 424242", v)
	}
	if v, _ := restored.Coordinator().Get("positionMs"); v != "424242" {
		t.Fatalf("re-homed coordinator positionMs = %q, want 424242", v)
	}
	if v, _ := restored.Coordinator().Get("track"); v != "song1" {
		t.Fatalf("re-homed coordinator track = %q, want song1", v)
	}
	if restored.Host() != "h2" {
		t.Fatalf("restored instance host = %q, want h2", restored.Host())
	}

	// The registry converged on the new home.
	waitFor(t, 5*time.Second, "lab3 seeing the re-homed record", func() bool {
		rec, found, _ := lab3.LookupApp(ctx, "smart-media-player", "h2")
		return found && rec.Running
	})

	// The kernel narrated the restoration. Events publish after the
	// relaunch is already observable, so poll rather than assert.
	seen := func(topic string) func() bool {
		return func() bool {
			evMu.Lock()
			defer evMu.Unlock()
			_, ok := events[topic]
			return ok
		}
	}
	waitFor(t, 5*time.Second, "cluster.rehomed event", seen(ctxkernel.TopicClusterRehomed))
	waitFor(t, 5*time.Second, "cluster.state.restored event", seen(ctxkernel.TopicStateRestored))
	waitFor(t, 5*time.Second, "cluster.state.replicated event", seen(ctxkernel.TopicStateReplicated))
	evMu.Lock()
	defer evMu.Unlock()
	if re := events[ctxkernel.TopicClusterRehomed]; re.Attr("restored") != "true" {
		t.Fatalf("rehomed event restored attr = %q, want true", re.Attr("restored"))
	}
}

// TestStopAppRetiresSnapshot drives the graceful-stop tombstone: after
// StopApp, no center may serve a snapshot (or a running record) that
// failover could resurrect the app from.
func TestStopAppRetiresSnapshot(t *testing.T) {
	cfg := clusterTestConfig()
	cfg.ReplicateState = true
	cfg.ReplicateInterval = 2 * time.Millisecond
	mw := newFederatedDeploymentSong(t, cfg, 64_000)
	ctx := context.Background()

	lab3, _ := mw.Cluster.Center("lab3")
	waitFor(t, 5*time.Second, "snapshot replicated to lab3", func() bool {
		_, ok := lab3.LatestSnapshot("smart-media-player")
		return ok
	})

	rt1, _ := mw.Host("h1")
	if err := rt1.Stop(ctx, "smart-media-player"); err != nil {
		t.Fatal(err)
	}
	if _, still := rt1.Engine.App("smart-media-player"); still {
		t.Fatal("engine still lists the stopped app")
	}
	lab1, _ := mw.Cluster.Center("lab1")
	if _, ok := lab1.LatestSnapshot("smart-media-player"); ok {
		t.Fatal("lab1 still serves the stopped app's snapshot")
	}
	waitFor(t, 5*time.Second, "tombstones reaching lab3", func() bool {
		if _, ok := lab3.LatestSnapshot("smart-media-player"); ok {
			return false
		}
		_, found, _ := lab3.LookupApp(ctx, "smart-media-player", "h1")
		return !found
	})
}

// TestDurableWritesPublishKernelEvents runs a federated deployment under
// WriteConcern=quorum and checks the observability wiring end to end:
// healthy durable writes surface as cluster.durable events, and once the
// center's host is partitioned from every peer — so its membership view
// says the quorum is unreachable — writes degrade fast and surface as
// cluster.degraded events instead of blocking the caller.
func TestDurableWritesPublishKernelEvents(t *testing.T) {
	cfg := clusterTestConfig()
	cfg.WriteConcern = cluster.WriteQuorum
	cfg.AckTimeout = 250 * time.Millisecond
	mw2, err := New(Config{Seed: 5, Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw2.Close() })
	var mu sync.Mutex
	durable, degraded := 0, 0
	mw2.Kernel.Subscribe(ctxkernel.TopicClusterDurable, func(ctxkernel.Event) {
		mu.Lock()
		durable++
		mu.Unlock()
	})
	mw2.Kernel.Subscribe(ctxkernel.TopicClusterDegraded, func(ctxkernel.Event) {
		mu.Lock()
		degraded++
		mu.Unlock()
	})
	for i, host := range []string{"h1", "h2", "h3"} {
		space := []string{"lab1", "lab2", "lab3"}[i]
		if err := mw2.AddSpace(space); err != nil {
			t.Fatal(err)
		}
		if err := mw2.AddGateway("gw-"+space, space, netsim.Pentium4_1700()); err != nil {
			t.Fatal(err)
		}
		if _, err := mw2.AddHost(host, space, netsim.Pentium4_1700(), testDevice(host), 0); err != nil {
			t.Fatal(err)
		}
	}
	// A post-provisioning write with every center up must be durable.
	if err := mw2.RegisterResource(demoapps.MusicResource(media.GenerateFile("s", 1000, 1), "h1")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	gotDurable := durable
	mu.Unlock()
	if gotDurable == 0 {
		t.Fatal("no cluster.durable event after a healthy quorum write")
	}

	// Cut h1 (and lab1's center with it) off from every peer, wait for
	// its own membership view to convict them, then write through lab1:
	// degraded mode must fail fast and publish cluster.degraded.
	mw2.Net.Partition([]string{"h1"}, []string{"h2", "h3"})
	n1, _ := mw2.Cluster.Node("h1")
	waitFor(t, 5*time.Second, "h1 convicting its peers", func() bool {
		m2, _ := n1.Member("h2")
		m3, _ := n1.Member("h3")
		return m2.State == cluster.StateDead && m3.State == cluster.StateDead
	})
	start := time.Now()
	// core swallows the advisory ErrNotDurable; the event carries it.
	if err := mw2.RegisterResource(demoapps.MusicResource(media.GenerateFile("s2", 1000, 1), "h1")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("degraded write took %v, want a fast fail via the membership view", elapsed)
	}
	mu.Lock()
	gotDegraded := degraded
	mu.Unlock()
	if gotDegraded == 0 {
		t.Fatal("no cluster.degraded event after a partitioned quorum write")
	}
}

// TestPartitionHealRearmsFailover runs the full-stack partition-healing
// scenario: h1 is cut off and convicted (its app re-homed), the partition
// heals, and the dead-member probe must bring h1 back to alive in every
// survivor's view — re-arming failover for a future, real death.
func TestPartitionHealRearmsFailover(t *testing.T) {
	mw := newFederatedDeployment(t)
	ctx := context.Background()
	for _, host := range []string{"h1", "h2", "h3"} {
		node, _ := mw.Cluster.Node(host)
		waitFor(t, 5*time.Second, host+" seeing 3 alive", func() bool {
			return len(node.AliveHosts()) == 3
		})
	}
	// The running record must replicate off lab1 before the cut: failover
	// plans against a surviving center, which can only re-home what it
	// has seen.
	for _, lab := range []string{"lab2", "lab3"} {
		center, _ := mw.Cluster.Center(lab)
		waitFor(t, 5*time.Second, "running record on "+lab, func() bool {
			rec, found, _ := center.LookupApp(ctx, "smart-media-player", "h1")
			return found && rec.Running
		})
	}

	mw.Net.Partition([]string{"h1"}, []string{"h2", "h3"})
	n2, _ := mw.Cluster.Node("h2")
	n3, _ := mw.Cluster.Node("h3")
	waitFor(t, 5*time.Second, "survivors convicting h1", func() bool {
		m2, _ := n2.Member("h1")
		m3, _ := n3.Member("h1")
		return m2.State == cluster.StateDead && m3.State == cluster.StateDead
	})
	// The app re-homes off h1 while it is cut off.
	if err := mw.WaitAppOn(context.Background(), "smart-media-player", "h2", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	mw.Net.HealPartition()
	// No manual Rejoin: the periodic dead-member probes on both sides
	// must clear the certificates.
	for _, pair := range []struct {
		node *cluster.Node
		name string
	}{{n2, "h2"}, {n3, "h3"}} {
		node := pair.node
		waitFor(t, 10*time.Second, pair.name+" clearing h1's certificate", func() bool {
			m, _ := node.Member("h1")
			return m.State == cluster.StateAlive
		})
	}
	n1, _ := mw.Cluster.Node("h1")
	waitFor(t, 10*time.Second, "h1 regaining full membership", func() bool {
		return len(n1.AliveHosts()) == 3
	})

	// The revived h1 still held its pre-partition player instance — a
	// stale duplicate of the re-homed copy on h2. Reconciliation must
	// stop it, leaving exactly one live instance.
	rt1, _ := mw.Host("h1")
	waitFor(t, 10*time.Second, "h1 dropping its superseded instance", func() bool {
		_, still := rt1.Engine.App("smart-media-player")
		return !still
	})
	rt2, _ := mw.Host("h2")
	if inst, ok := rt2.Engine.App("smart-media-player"); !ok || inst.State() != app.Running {
		t.Fatal("re-homed copy on h2 disturbed by reconciliation")
	}
}

// TestFollowMeAcrossCentersLeavesOneRunningRecord: h1 and h2 register
// with different federated centers (lab1, lab2). The destination's
// commit at lab2 cannot demote h1's record — lab1 owns it — so lab2 says
// so and the source demotes it at lab1 after the reply. Once
// anti-entropy settles, every center lists the player running on h2
// only.
func TestFollowMeAcrossCentersLeavesOneRunningRecord(t *testing.T) {
	mw := newFederatedDeploymentSong(t, clusterTestConfig(), 64<<10)
	ctx := context.Background()
	const player = "smart-media-player"
	lab2, _ := mw.Cluster.Center("lab2")
	waitFor(t, 5*time.Second, "h1's running record at lab2", func() bool {
		rec, found, _ := lab2.LookupApp(ctx, player, "h1")
		return found && rec.Running
	})

	rt1, _ := mw.Host("h1")
	rep, err := rt1.Migrate(ctx, player, "h2", migrate.BindingAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range rep.AdaptNotes {
		if strings.Contains(note, "not demoted") {
			t.Fatalf("report: %q", note)
		}
	}
	running := func(c *cluster.Center) []string {
		var hosts []string
		for _, rec := range c.Apps(nil) {
			if rec.Name == player && rec.Running {
				hosts = append(hosts, rec.Host)
			}
		}
		return hosts
	}
	spaces := []string{"lab1", "lab2", "lab3"}
	waitFor(t, 5*time.Second, "every center to list the player running on h2 only", func() bool {
		for _, s := range spaces {
			c, _ := mw.Cluster.Center(s)
			if err := c.SyncNow(ctx); err != nil {
				return false
			}
			if got := running(c); len(got) != 1 || got[0] != "h2" {
				return false
			}
		}
		return true
	})
}
