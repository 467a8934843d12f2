package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// volatileCenter is NewCenter without a store, which reads no layout and
// so cannot fail.
func volatileCenter(space string, ep *transport.Endpoint, cfg Config) *Center {
	c, err := NewCenter(space, nil, ep, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func newCenterPair(t *testing.T) (*Center, *Center) {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	mk := func(space string) *Center {
		ep, err := fab.Attach(CenterEndpointName(space), "")
		if err != nil {
			t.Fatal(err)
		}
		return volatileCenter(space, ep, testConfig())
	}
	a, b := mk("alpha"), mk("beta")
	a.AddPeer("beta", CenterEndpointName("beta"))
	b.AddPeer("alpha", CenterEndpointName("alpha"))
	return a, b
}

func appDesc(name string) wsdl.Description {
	return wsdl.Description{
		Name: name,
		Services: []wsdl.Service{{Name: "svc", Ports: []wsdl.Port{{
			Name: "p", Operations: []wsdl.Operation{{Name: "op"}},
		}}}},
	}
}

func TestFederationReplicatesAllRecordKinds(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()

	rec := registry.AppRecord{
		Name: "player", Host: "hostA", Description: appDesc("player"),
		Components: []string{"ui", "logic"}, Running: true,
	}
	if err := a.RegisterApp(ctx, rec); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterResource(ctx, owl.Resource{
		ID: "song-1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 1024,
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterDevice(ctx, wsdl.DeviceProfile{Host: "hostA", MemoryMB: 256}); err != nil {
		t.Fatal(err)
	}
	// The record's space defaulted to the writing center's.
	if got, found, _ := a.LookupApp(ctx, "player", "hostA"); !found || got.Space != "alpha" {
		t.Fatalf("local record = %+v (found %v), want space alpha", got, found)
	}

	// b pulls everything in one anti-entropy round.
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	got, found, err := b.LookupApp(ctx, "player", "hostA")
	if err != nil || !found {
		t.Fatalf("replicated app lookup: found=%v err=%v", found, err)
	}
	if !got.Running || len(got.Components) != 2 || got.Space != "alpha" {
		t.Fatalf("replicated record mangled: %+v", got)
	}
	if _, found := b.Device("hostA"); !found {
		t.Fatal("device profile not replicated")
	}
	if res := b.ResourcesOnHost("hostA"); len(res) != 1 || res[0].ID != "song-1" {
		t.Fatalf("resource not replicated: %v", res)
	}
}

func TestFederationPushPropagatesWithoutSync(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()
	if err := a.RegisterApp(ctx, registry.AppRecord{
		Name: "editor", Host: "hostA", Description: appDesc("editor"),
	}); err != nil {
		t.Fatal(err)
	}
	// No SyncNow: the asynchronous push alone must land it at b.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, found, _ := b.LookupApp(ctx, "editor", "hostA"); found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("push never reached peer center")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFederationTombstoneRemovesEverywhere(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()
	if err := a.RegisterApp(ctx, registry.AppRecord{
		Name: "player", Host: "hostA", Description: appDesc("player"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := b.LookupApp(ctx, "player", "hostA"); !found {
		t.Fatal("precondition: record replicated")
	}
	if err := a.UnregisterApp(ctx, "player", "hostA"); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := b.LookupApp(ctx, "player", "hostA"); found {
		t.Fatal("tombstone did not remove replicated record")
	}
	// The tombstone must not resurrect via a's next sync either.
	if err := a.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := a.LookupApp(ctx, "player", "hostA"); found {
		t.Fatal("tombstoned record resurrected at origin")
	}
}

func TestFederationConcurrentWritesConverge(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()
	// Both centers write the same key before either hears of the other's
	// version: a genuine concurrent update.
	mk := func(space string) registry.AppRecord {
		return registry.AppRecord{
			Name: "player", Host: "hostA", Space: space,
			Description: appDesc("player"), Components: []string{"from-" + space},
		}
	}
	if err := a.RegisterApp(ctx, mk("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterApp(ctx, mk("beta")); err != nil {
		t.Fatal(err)
	}
	// Full reconciliation both directions, twice (merge then re-offer).
	for i := 0; i < 2; i++ {
		if err := a.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
		if err := b.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	ra, _, _ := a.LookupApp(ctx, "player", "hostA")
	rb, _, _ := b.LookupApp(ctx, "player", "hostA")
	if ra.Space != rb.Space || len(ra.Components) != 1 || ra.Components[0] != rb.Components[0] {
		t.Fatalf("centers diverged: a=%+v b=%+v", ra, rb)
	}
	// Deterministic winner: the higher origin space id.
	if ra.Space != "beta" {
		t.Fatalf("tiebreak picked %q, want beta", ra.Space)
	}
}

// TestFederationConcurrentLocalWritesAreOrdered hammers one center with
// racing writers for the same key: every write must tick on top of the
// previous (one totally ordered history), never produce two identical
// vectors that peers could adopt in different orders.
func TestFederationConcurrentLocalWritesAreOrdered(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := registry.AppRecord{
					Name: "player", Host: "hostA",
					Description: appDesc("player"),
					Components:  []string{fmt.Sprintf("w%d-i%d", w, i)},
				}
				if err := a.RegisterApp(ctx, rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	key := registry.AppRecord{Name: "player", Host: "hostA"}.Key()
	a.mu.Lock()
	got := a.records[key].Version.Counter("alpha")
	a.mu.Unlock()
	if want := uint64(writers * perWriter); got != want {
		t.Fatalf("version counter = %d, want %d (lost writes mean racing identical vectors)", got, want)
	}
	// And the peer converges to exactly that version.
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	peer := b.records[key].Version.Counter("alpha")
	b.mu.Unlock()
	if peer != uint64(writers*perWriter) {
		t.Fatalf("peer version counter = %d, want %d", peer, writers*perWriter)
	}
}

// TestFederationVersionsSurviveRestart rebuilds a center over the same
// durable store: post-restart writes must continue the version history
// ({alpha:3}, not a fresh {alpha:1} that peers would reject as stale
// and silently revert via anti-entropy).
func TestFederationVersionsSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "center.log")
	key := registry.AppRecord{Name: "player", Host: "hostA"}.Key()
	ctx := context.Background()

	open := func() (*Center, func()) {
		db, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fab := transport.NewLocalFabric(nil)
		ep, err := fab.Attach(CenterEndpointName("alpha"), "")
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCenter("alpha", db, ep, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c, func() {
			fab.Close()
			db.Close()
		}
	}

	c1, close1 := open()
	for i := 0; i < 2; i++ {
		if err := c1.RegisterApp(ctx, registry.AppRecord{
			Name: "player", Host: "hostA", Description: appDesc("player"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	c1.mu.Lock()
	before := c1.records[key].Version.Counter("alpha")
	c1.mu.Unlock()
	if before != 2 {
		t.Fatalf("pre-restart counter = %d, want 2", before)
	}
	close1()

	c2, close2 := open()
	defer close2()
	if err := c2.RegisterApp(ctx, registry.AppRecord{
		Name: "player", Host: "hostA", Description: appDesc("player"),
	}); err != nil {
		t.Fatal(err)
	}
	c2.mu.Lock()
	after := c2.records[key].Version.Counter("alpha")
	c2.mu.Unlock()
	if after != 3 {
		t.Fatalf("post-restart counter = %d, want 3 (history lost across restart)", after)
	}
}

func mustSnapshot(t *testing.T, appName, host string, val string) state.SnapshotPut {
	t.Helper()
	inst := app.New(appName, host, appDesc(appName))
	st := app.NewState("st")
	st.Set("v", val)
	if err := inst.AddComponent(st); err != nil {
		t.Fatal(err)
	}
	// A payload blob keeps deltas small relative to the base, so the
	// center does not refuse them as outweighing it.
	if err := inst.AddComponent(app.NewSizedBlob("payload", app.KindData, 8<<10)); err != nil {
		t.Fatal(err)
	}
	w, err := inst.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := state.EncodeSnapshot(app.TaggedSnapshot{Tag: "replica", At: time.Unix(1, 0), Wrap: w})
	if err != nil {
		t.Fatal(err)
	}
	return state.SnapshotPut{
		App: appName, Host: host, At: time.Unix(1, 0),
		Frame: frame, NewDigest: state.WrapDigest(w),
	}
}

// mustDelta builds a delta put mutating the "st" component's value on
// top of the given base state.
func mustDelta(t *testing.T, appName, host, baseVal, newVal string) state.SnapshotPut {
	t.Helper()
	inst := app.New(appName, host, appDesc(appName))
	st := app.NewState("st")
	st.Set("v", baseVal)
	if err := inst.AddComponent(st); err != nil {
		t.Fatal(err)
	}
	if err := inst.AddComponent(app.NewSizedBlob("payload", app.KindData, 8<<10)); err != nil {
		t.Fatal(err)
	}
	base, err := inst.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Set("v", newVal)
	next, err := inst.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := inst.WrapComponents([]string{"st"})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := state.EncodeDelta(state.WrapDelta{
		App: appName, FromHost: host, BaseDigest: state.WrapDigest(base),
		Components: changed.Components, Kinds: changed.Kinds,
		CoordState: changed.CoordState, Profile: changed.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	return state.SnapshotPut{
		App: appName, Host: host, At: time.Unix(2, 0), Delta: true, Frame: frame,
		BaseDigest: state.WrapDigest(base), NewDigest: state.WrapDigest(next),
	}
}

func snapValue(t *testing.T, sr state.SnapshotRecord) string {
	t.Helper()
	ts, err := sr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := ts.Wrap
	inst := app.New(w.App, "check", appDesc(w.App))
	if err := inst.Unwrap(w); err != nil {
		t.Fatal(err)
	}
	st, ok := inst.Component("st")
	if !ok {
		t.Fatal("snapshot lost its state component")
	}
	v, _ := st.(*app.StateComponent).Get("v")
	return v
}

func TestFederationReplicatesSnapshots(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()

	stamped, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1"))
	if err != nil {
		t.Fatal(err)
	}
	if stamped.Seq != 1 {
		t.Fatalf("first snapshot seq = %d, want 1", stamped.Seq)
	}
	if rec, _ := a.LatestSnapshot("player"); rec.Space != "alpha" {
		t.Fatalf("stored space = %q, want alpha", rec.Space)
	}
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := b.LatestSnapshot("player")
	if !ok {
		t.Fatal("snapshot did not replicate to beta")
	}
	if v := snapValue(t, got); v != "pos-1" {
		t.Fatalf("replicated snapshot value = %q, want pos-1", v)
	}

	// A newer capture supersedes, and its center-assigned sequence grows.
	stamped2, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-2"))
	if err != nil {
		t.Fatal(err)
	}
	if stamped2.Seq != 2 {
		t.Fatalf("second snapshot seq = %d, want 2", stamped2.Seq)
	}
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.LatestSnapshot("player"); snapValue(t, got) != "pos-2" {
		t.Fatalf("beta kept the stale snapshot")
	}
}

func TestFederationSnapshotTombstone(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()
	if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1")); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.LatestSnapshot("player"); !ok {
		t.Fatal("snapshot did not replicate before the tombstone")
	}
	// Graceful stop: the tombstone replicates and hides the snapshot
	// everywhere.
	if err := a.DropSnapshot(ctx, "player", "hostA"); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.LatestSnapshot("player"); ok {
		t.Fatal("alpha still serves a tombstoned snapshot")
	}
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.LatestSnapshot("player"); ok {
		t.Fatal("beta still serves a tombstoned snapshot")
	}
}

func TestFederationConcurrentSnapshotsPreferLongerHistory(t *testing.T) {
	a, b := newCenterPair(t)
	ctx := context.Background()
	// Both centers accept snapshots for the same app without having seen
	// each other's writes: beta has captured twice (longer history),
	// alpha once. After convergence both must agree on beta's latest,
	// regardless of the origin-space tiebreak that would pick beta anyway
	// — so run it mirrored too.
	if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "alpha-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutSnapshot(ctx, mustSnapshot(t, "player", "hostB", "beta-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutSnapshot(ctx, mustSnapshot(t, "player", "hostB", "beta-2")); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	av, _ := a.LatestSnapshot("player")
	bv, _ := b.LatestSnapshot("player")
	if snapValue(t, av) != "beta-2" || snapValue(t, bv) != "beta-2" {
		t.Fatalf("centers disagree or picked the shorter history: alpha=%q beta=%q",
			snapValue(t, av), snapValue(t, bv))
	}

	// Mirrored: now alpha develops the longer history concurrently.
	a2, b2 := newCenterPair(t)
	if _, err := b2.PutSnapshot(ctx, mustSnapshot(t, "player", "hostB", "beta-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "alpha-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "alpha-2")); err != nil {
		t.Fatal(err)
	}
	if err := a2.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b2.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	av2, _ := a2.LatestSnapshot("player")
	bv2, _ := b2.LatestSnapshot("player")
	if snapValue(t, av2) != "alpha-2" || snapValue(t, bv2) != "alpha-2" {
		t.Fatalf("longer alpha history lost: alpha=%q beta=%q",
			snapValue(t, av2), snapValue(t, bv2))
	}
}

// TestFederationDeltaChainRefusalAndPush drives a real replicator
// against one center and checks the whole delta leg: chain growth on the
// writer, delta-only pushes converging the peer (no anti-entropy pulls
// are ever run here), and the center's refusal of a delta onto a full
// chain — not any compaction — bounding it: the replicator answers the
// refusal with a fresh base in the same capture.
func TestFederationDeltaChainRefusalAndPush(t *testing.T) {
	a, b := newCenterPair(t)
	inst := app.New("player", "hostA", appDesc("player"))
	st := app.NewState("st")
	st.Set("v", "0")
	if err := inst.AddComponent(st); err != nil {
		t.Fatal(err)
	}
	if err := inst.AddComponent(app.NewSizedBlob("blob", app.KindData, 64<<10)); err != nil {
		t.Fatal(err)
	}
	rep := state.NewReplicator("hostA", "alpha",
		func() []*app.Application { return []*app.Application{inst} },
		a, nil, time.Hour, state.Tuning{})
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		st.Set("v", strconv.Itoa(i))
		if err := rep.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok := a.LatestSnapshot("player")
	if !ok || rec.Seq != 4 || rec.BaseSeq != 1 || len(rec.Deltas) != 3 {
		t.Fatalf("writer record = seq %d base %d chain %d, want 4/1/3", rec.Seq, rec.BaseSeq, len(rec.Deltas))
	}
	if v := snapValue(t, rec); v != "3" {
		t.Fatalf("writer chain value = %q, want 3", v)
	}

	// The peer converges on pushes alone: the base rode a full record
	// push, each delta a snapDeltaMsg.
	waitPeer := func(wantSeq uint64, wantVal string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if got, ok := b.LatestSnapshot("player"); ok && got.Seq == wantSeq {
				if v := snapValue(t, got); v != wantVal {
					t.Fatalf("peer value at seq %d = %q, want %q", wantSeq, v, wantVal)
				}
				return
			}
			if time.Now().After(deadline) {
				got, _ := b.LatestSnapshot("player")
				t.Fatalf("peer never reached seq %d (at %d)", wantSeq, got.Seq)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitPeer(4, "3")
	if got, _ := b.LatestSnapshot("player"); len(got.Deltas) != 3 {
		t.Fatalf("peer chain = %d deltas, want 3 (delta pushes applied)", len(got.Deltas))
	}

	// Push the chain past maxDeltaChain: seq 9 is the 8th delta, the 9th
	// is refused and re-sent as a base (seq 10), and deltas chain on it.
	for i := 4; i <= 14; i++ {
		st.Set("v", strconv.Itoa(i))
		if err := rep.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rec2, _ := a.LatestSnapshot("player")
	if rec2.Seq != 15 || rec2.BaseSeq != 10 || len(rec2.Deltas) != 5 {
		t.Fatalf("writer record = seq %d base %d chain %d, want 15/10/5", rec2.Seq, rec2.BaseSeq, len(rec2.Deltas))
	}
	if s := rep.Stats(); s.FullFrames != 2 || s.Rebaselines != 1 {
		t.Fatalf("replicator stats %+v, want 2 full frames, 1 rebaseline", s)
	}
	if v := snapValue(t, rec2); v != "14" {
		t.Fatalf("value after the re-base = %q, want 14", v)
	}
	waitPeer(rec2.Seq, "14")
	if got, _ := b.LatestSnapshot("player"); got.BaseSeq != 10 || len(got.Deltas) != 5 {
		t.Fatalf("peer record = base %d chain %d, want the writer's 10/5", got.BaseSeq, len(got.Deltas))
	}
}

// TestSnapshotWireProtocol exercises the Serve-bound snapshot handlers
// through a SnapshotClient: full put, chained delta put, in-band
// need-full refusal, remote fetch, and tombstone.
func TestSnapshotWireProtocol(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach(CenterEndpointName("alpha"), "")
	if err != nil {
		t.Fatal(err)
	}
	c := volatileCenter("alpha", ep, testConfig())
	c.Serve(ep)
	cliEp, err := fab.Attach("client@test", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewSnapshotClient(cliEp, CenterEndpointName("alpha"))
	ctx := context.Background()

	stamp, err := cli.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1"))
	if err != nil || stamp.Seq != 1 {
		t.Fatalf("remote full put: stamp=%+v err=%v", stamp, err)
	}
	stamp2, err := cli.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "pos-1", "pos-2"))
	if err != nil || stamp2.Seq != 2 || stamp2.Chain != 1 {
		t.Fatalf("remote delta put: stamp=%+v err=%v", stamp2, err)
	}
	rec, found, err := cli.LatestSnapshot(ctx, "player")
	if err != nil || !found {
		t.Fatalf("remote get: found=%v err=%v", found, err)
	}
	if err := rec.Verify(); err != nil {
		t.Fatal(err)
	}
	if v := snapValue(t, rec); v != "pos-2" {
		t.Fatalf("remote record value = %q, want pos-2", v)
	}

	// A delta against a base the center does not hold comes back as the
	// typed ErrNeedFull, not a transport error.
	if _, err := cli.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "bogus-base", "pos-3")); !errors.Is(err, state.ErrNeedFull) {
		t.Fatalf("stale-base delta: err = %v, want ErrNeedFull", err)
	}

	if err := cli.DropSnapshot(ctx, "player", "hostA"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cli.LatestSnapshot(ctx, "player"); found {
		t.Fatal("tombstoned snapshot still served over the wire")
	}
}

// TestSnapshotDeltaAwareFetch: a restore fetch from a client that
// already holds an older record of the app moves only the missing delta
// tail; a base move (fresh full frame) or a cache that does not line up
// degrades to a full fetch, never a corrupt graft.
func TestSnapshotDeltaAwareFetch(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach(CenterEndpointName("alpha"), "")
	if err != nil {
		t.Fatal(err)
	}
	c := volatileCenter("alpha", ep, testConfig())
	c.Serve(ep)
	cliEp, err := fab.Attach("client@test", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewSnapshotClient(cliEp, CenterEndpointName("alpha"))
	ctx := context.Background()

	mustPut := func(p state.SnapshotPut) {
		t.Helper()
		if _, err := cli.PutSnapshot(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	mustGet := func(wantVal string) state.SnapshotRecord {
		t.Helper()
		rec, found, err := cli.LatestSnapshot(ctx, "player")
		if err != nil || !found {
			t.Fatalf("fetch: found=%v err=%v", found, err)
		}
		if v := snapValue(t, rec); v != wantVal {
			t.Fatalf("restored value = %q, want %q", v, wantVal)
		}
		return rec
	}

	// Cold fetch: no cache, the full record crosses the wire.
	mustPut(mustSnapshot(t, "player", "hostA", "pos-1"))
	mustPut(mustDelta(t, "player", "hostA", "pos-1", "pos-2"))
	mustGet("pos-2")
	if s := cli.FetchStats(); s.Full != 1 || s.DeltaOnly != 0 {
		t.Fatalf("cold fetch stats = %+v, want one full", s)
	}

	// The center advances by one delta; the next fetch grafts just the
	// tail onto the cached record.
	mustPut(mustDelta(t, "player", "hostA", "pos-2", "pos-3"))
	rec := mustGet("pos-3")
	if s := cli.FetchStats(); s.DeltaOnly != 1 || s.Full != 1 {
		t.Fatalf("tail fetch stats = %+v, want one delta-only", s)
	}
	if len(rec.Deltas) != 2 || rec.Seq != 3 || rec.BaseSeq != 1 {
		t.Fatalf("grafted record shape: seq=%d base=%d chain=%d", rec.Seq, rec.BaseSeq, len(rec.Deltas))
	}

	// Client already current: still tail-only, with an empty tail.
	rec = mustGet("pos-3")
	if s := cli.FetchStats(); s.DeltaOnly != 2 {
		t.Fatalf("up-to-date fetch stats = %+v, want a second delta-only", s)
	}
	if len(rec.Deltas) != 2 {
		t.Fatalf("up-to-date fetch changed the chain: %d deltas", len(rec.Deltas))
	}

	// A cache the center's digest check cannot see through (right head
	// digest, wrong chain shape) must fail the graft and fall back to one
	// full refetch instead of returning a torn record.
	cli.mu.Lock()
	bad := cli.cache["player"]
	bad.Deltas = bad.Deltas[:1] // shape lie: Seq still claims two deltas
	cli.cache["player"] = bad
	cli.mu.Unlock()
	mustGet("pos-3")
	if s := cli.FetchStats(); s.Refetches != 1 || s.Full != 2 {
		t.Fatalf("poisoned-cache stats = %+v, want one refetch + second full", s)
	}

	// A fresh full frame moves the base sequence: the cached prefix no
	// longer applies and the center answers with the full record.
	mustPut(mustSnapshot(t, "player", "hostA", "pos-9"))
	mustGet("pos-9")
	if s := cli.FetchStats(); s.Full != 3 || s.DeltaOnly != 2 || s.Refetches != 1 {
		t.Fatalf("base-move stats = %+v, want a third full fetch", s)
	}

	// Tombstone clears the cache, so a later re-put is fetched full.
	if err := cli.DropSnapshot(ctx, "player", "hostA"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cli.LatestSnapshot(ctx, "player"); found {
		t.Fatal("tombstoned snapshot still served")
	}
	mustPut(mustSnapshot(t, "player", "hostA", "pos-10"))
	mustGet("pos-10")
	if s := cli.FetchStats(); s.Full != 4 {
		t.Fatalf("post-tombstone stats = %+v, want a fourth full fetch", s)
	}
}
