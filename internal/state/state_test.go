package state_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/state"
	"mdagent/internal/wsdl"
)

func testApp(t *testing.T, name, host string) *app.Application {
	t.Helper()
	a := app.New(name, host, wsdl.Description{Name: name})
	st := app.NewState("st")
	st.Set("cursor", "7")
	if err := a.AddComponent(st); err != nil {
		t.Fatal(err)
	}
	if err := a.AddComponent(app.NewBlob("data", app.KindData, []byte("payload"))); err != nil {
		t.Fatal(err)
	}
	a.Coordinator().Set("track", "t1")
	return a
}

func mustWrap(t *testing.T, a *app.Application) app.Wrap {
	t.Helper()
	w, err := a.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWrapFrameRoundTrip(t *testing.T) {
	a := testApp(t, "x", "h1")
	w := mustWrap(t, a)
	raw, err := state.EncodeWrap(w)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := state.DecodeWrap(raw)
	if err != nil {
		t.Fatal(err)
	}
	b := app.New("x", "h2", wsdl.Description{Name: "x"})
	if err := b.Unwrap(w2); err != nil {
		t.Fatal(err)
	}
	st, ok := b.Component("st")
	if !ok {
		t.Fatal("state component lost in transfer")
	}
	if v, _ := st.(*app.StateComponent).Get("cursor"); v != "7" {
		t.Fatalf("restored cursor = %q, want 7", v)
	}
	if v, _ := b.Coordinator().Get("track"); v != "t1" {
		t.Fatalf("restored coord track = %q, want t1", v)
	}
}

func TestSnapshotFrameRoundTrip(t *testing.T) {
	a := testApp(t, "x", "h1")
	w := mustWrap(t, a)
	ts := app.TaggedSnapshot{Tag: "replica", At: time.Unix(42, 0), Wrap: w}
	raw, err := state.EncodeSnapshot(ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := state.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != "replica" || !got.At.Equal(ts.At) || got.Wrap.App != "x" {
		t.Fatalf("snapshot round trip = %+v", got)
	}
}

func TestDecodeRejectsGarbageTamperingAndWrongKind(t *testing.T) {
	a := testApp(t, "x", "h1")
	raw, err := state.EncodeWrap(mustWrap(t, a))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := state.DecodeWrap([]byte("garbage")); !errors.Is(err, state.ErrBadFrame) {
		t.Fatalf("garbage: err = %v, want ErrBadFrame", err)
	}
	if _, err := state.DecodeWrap(nil); !errors.Is(err, state.ErrBadFrame) {
		t.Fatalf("nil: err = %v, want ErrBadFrame", err)
	}

	// Flip one payload byte: the checksum must catch it.
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)-1] ^= 0xFF
	if _, err := state.DecodeWrap(tampered); !errors.Is(err, state.ErrChecksum) {
		t.Fatalf("tampered: err = %v, want ErrChecksum", err)
	}

	// A wrap frame is not a snapshot frame.
	if _, err := state.DecodeSnapshot(raw); !errors.Is(err, state.ErrKind) {
		t.Fatalf("wrong kind: err = %v, want ErrKind", err)
	}

	// A frame from a future codec version is refused, not misparsed.
	future := append([]byte(nil), raw...)
	future[4] = 99
	if _, err := state.DecodeWrap(future); !errors.Is(err, state.ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}
}

// --- Delta codec. ---

// deltaFor wraps the components of a changed since seq into a delta
// against base.
func deltaFor(t *testing.T, a *app.Application, base app.Wrap, seq uint64) state.WrapDelta {
	t.Helper()
	changed := a.ChangedSince(seq)
	if changed == nil {
		changed = []string{}
	}
	w, err := a.WrapComponents(changed)
	if err != nil {
		t.Fatal(err)
	}
	return state.WrapDelta{
		App: base.App, FromHost: w.FromHost, BaseDigest: state.WrapDigest(base),
		Components: w.Components, Kinds: w.Kinds,
		CoordState: w.CoordState, Profile: w.Profile,
	}
}

func TestDeltaFrameRoundTripAndApply(t *testing.T) {
	a := testApp(t, "x", "h1")
	base := mustWrap(t, a)
	seq := a.ChangeSeq()

	// Mutate only the small state component; the blob must not appear in
	// the delta.
	st, _ := a.Component("st")
	st.(*app.StateComponent).Set("cursor", "8")
	a.Coordinator().Set("track", "t2")

	d := deltaFor(t, a, base, seq)
	if _, ok := d.Components["data"]; ok {
		t.Fatal("unchanged blob rode in the delta")
	}
	if _, ok := d.Components["st"]; !ok {
		t.Fatal("changed state component missing from the delta")
	}

	raw, err := state.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := state.DecodeDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	full, err := state.ApplyDelta(base, d2)
	if err != nil {
		t.Fatal(err)
	}
	if state.WrapDigest(full) != state.WrapDigest(mustWrap(t, a)) {
		t.Fatal("reassembled wrap differs from the live state")
	}
	if full.CoordState["track"] != "t2" {
		t.Fatalf("coord state not replaced: %q", full.CoordState["track"])
	}
	if string(full.Components["data"]) != "payload" {
		t.Fatal("base blob lost in reassembly")
	}
}

func TestApplyDeltaRejectsWrongBase(t *testing.T) {
	a := testApp(t, "x", "h1")
	base := mustWrap(t, a)
	seq := a.ChangeSeq()
	st, _ := a.Component("st")
	st.(*app.StateComponent).Set("cursor", "8")
	d := deltaFor(t, a, base, seq)

	// Wrong app.
	other := testApp(t, "y", "h1")
	if _, err := state.ApplyDelta(mustWrap(t, other), d); !errors.Is(err, state.ErrBaseMismatch) {
		t.Fatalf("wrong app: err = %v, want ErrBaseMismatch", err)
	}
	// Right app, wrong state (the delta's base has cursor=7; mutate it).
	st.(*app.StateComponent).Set("cursor", "9")
	if _, err := state.ApplyDelta(mustWrap(t, a), d); !errors.Is(err, state.ErrBaseMismatch) {
		t.Fatalf("wrong base state: err = %v, want ErrBaseMismatch", err)
	}
}

// chainRecord builds a SnapshotRecord with n sequential deltas over a
// base, mutating the cursor each step, and returns the record plus the
// final expected cursor value.
func chainRecord(t *testing.T, n int) (state.SnapshotRecord, string) {
	t.Helper()
	a := testApp(t, "x", "h1")
	base := mustWrap(t, a)
	frame, err := state.EncodeSnapshot(app.TaggedSnapshot{Tag: "replica", At: time.Unix(1, 0), Wrap: base})
	if err != nil {
		t.Fatal(err)
	}
	rec := state.SnapshotRecord{
		App: "x", Host: "h1", Space: "lab", Seq: 1, BaseSeq: 1,
		At: time.Unix(1, 0), Frame: frame, StateDigest: state.WrapDigest(base),
	}
	prev := base
	val := "7"
	st, _ := a.Component("st")
	for i := 0; i < n; i++ {
		seq := a.ChangeSeq()
		val = string(rune('a' + i))
		st.(*app.StateComponent).Set("cursor", val)
		d := deltaFor(t, a, prev, seq)
		raw, err := state.EncodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		rec.Deltas = append(rec.Deltas, raw)
		rec.Seq++
		prev = mustWrap(t, a)
		rec.StateDigest = state.WrapDigest(prev)
	}
	return rec, val
}

func TestSnapshotRecordChainReassembly(t *testing.T) {
	rec, want := chainRecord(t, 3)
	if err := rec.Verify(); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	ts, err := rec.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := app.New("x", "h2", wsdl.Description{Name: "x"})
	if err := b.Unwrap(ts.Wrap); err != nil {
		t.Fatal(err)
	}
	st, _ := b.Component("st")
	if v, _ := st.(*app.StateComponent).Get("cursor"); v != want {
		t.Fatalf("chain restore cursor = %q, want %q", v, want)
	}
	if state.WrapDigest(ts.Wrap) != rec.StateDigest {
		t.Fatal("reassembled digest differs from the record's StateDigest")
	}
}

func TestSnapshotRecordChainEdgeCases(t *testing.T) {
	// Out-of-order deltas: the digest chain breaks and reassembly fails
	// loudly instead of restoring scrambled state.
	rec, _ := chainRecord(t, 3)
	rec.Deltas[0], rec.Deltas[1] = rec.Deltas[1], rec.Deltas[0]
	if _, err := rec.Snapshot(); !errors.Is(err, state.ErrBaseMismatch) {
		t.Fatalf("out-of-order chain: err = %v, want ErrBaseMismatch", err)
	}

	// Garbage base frame.
	rec2, _ := chainRecord(t, 1)
	rec2.Frame = []byte("not a frame")
	if _, err := rec2.Snapshot(); !errors.Is(err, state.ErrBadFrame) {
		t.Fatalf("garbage base: err = %v, want ErrBadFrame", err)
	}
	if err := rec2.Verify(); !errors.Is(err, state.ErrBadFrame) {
		t.Fatalf("garbage base Verify: err = %v, want ErrBadFrame", err)
	}

	// A corrupted delta frame fails both the cheap Verify and the full
	// reassembly with a checksum error.
	rec3, _ := chainRecord(t, 2)
	rec3.Deltas[1][len(rec3.Deltas[1])-1] ^= 0xFF
	if err := rec3.Verify(); !errors.Is(err, state.ErrChecksum) {
		t.Fatalf("corrupt delta Verify: err = %v, want ErrChecksum", err)
	}
	if _, err := rec3.Snapshot(); !errors.Is(err, state.ErrChecksum) {
		t.Fatalf("corrupt delta Snapshot: err = %v, want ErrChecksum", err)
	}

	// A missing base (delta-only record) cannot reassemble.
	rec4, _ := chainRecord(t, 1)
	rec4.Frame = nil
	if _, err := rec4.Snapshot(); !errors.Is(err, state.ErrBadFrame) {
		t.Fatalf("missing base: err = %v, want ErrBadFrame", err)
	}
}

// --- Replicator. ---

// fakePublisher models a center: it keeps one chained record per app,
// refuses delta puts whose base digest does not match (ErrNeedFull), and
// assigns capture sequences.
type fakePublisher struct {
	mu           sync.Mutex
	puts         []state.SnapshotPut
	recs         map[string]state.SnapshotRecord
	drops        []string
	needFullOnce bool // force the next delta put to fail with ErrNeedFull
	notDurable   bool // store each put but report ErrNotDurable (peers unreachable)
}

func newFakePublisher() *fakePublisher {
	return &fakePublisher{recs: make(map[string]state.SnapshotRecord)}
}

func (p *fakePublisher) PutSnapshot(_ context.Context, put state.SnapshotPut) (state.SnapshotStamp, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := p.recs[put.App]
	if put.Delta {
		if p.needFullOnce || len(rec.Frame) == 0 || rec.StateDigest != put.BaseDigest {
			p.needFullOnce = false
			return state.SnapshotStamp{}, state.ErrNeedFull
		}
		rec.Deltas = append(rec.Deltas, put.Frame)
		rec.Seq++
	} else {
		rec = state.SnapshotRecord{App: put.App, Seq: rec.Seq + 1, BaseSeq: rec.Seq + 1, Frame: put.Frame}
	}
	rec.Host, rec.Space, rec.At, rec.StateDigest = put.Host, put.Space, put.At, put.NewDigest
	p.recs[put.App] = rec
	p.puts = append(p.puts, put)
	stamp := state.SnapshotStamp{Seq: rec.Seq, BaseSeq: rec.BaseSeq, Chain: len(rec.Deltas)}
	if p.notDurable {
		// Like a real center running a synchronous write concern with its
		// peers down: the put is stored locally but the ack count fell
		// short.
		return stamp, fmt.Errorf("fake: %w", state.ErrNotDurable)
	}
	return stamp, nil
}

func (p *fakePublisher) setNotDurable(v bool) {
	p.mu.Lock()
	p.notDurable = v
	p.mu.Unlock()
}

func (p *fakePublisher) DropSnapshot(_ context.Context, appName, _ string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drops = append(p.drops, appName)
	delete(p.recs, appName)
	return nil
}

func (p *fakePublisher) putCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.puts)
}

func (p *fakePublisher) put(i int) state.SnapshotPut {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.puts[i]
}

func (p *fakePublisher) record(appName string) (state.SnapshotRecord, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.recs[appName]
	return rec, ok
}

// noPacing disables the byte-budget cadence so manual SyncNow tests are
// deterministic.
var noPacing = state.Tuning{BudgetBytesPerSec: -1}

func newTestReplicator(a *app.Application, pub state.Publisher, tune state.Tuning) *state.Replicator {
	return state.NewReplicator("h1", "lab", func() []*app.Application { return []*app.Application{a} },
		pub, nil, time.Hour /* manual syncs only */, tune)
}

func recordValue(t *testing.T, pub *fakePublisher, appName, comp, key string) string {
	t.Helper()
	rec, ok := pub.record(appName)
	if !ok {
		t.Fatalf("no record for %s", appName)
	}
	ts, err := rec.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := app.New(appName, "check", wsdl.Description{Name: appName})
	if err := b.Unwrap(ts.Wrap); err != nil {
		t.Fatal(err)
	}
	c, ok := b.Component(comp)
	if !ok {
		t.Fatalf("component %s missing from record", comp)
	}
	v, _ := c.(*app.StateComponent).Get(key)
	return v
}

func TestReplicatorPublishesFullThenDelta(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()

	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if pub.putCount() != 1 {
		t.Fatalf("puts after first sync = %d, want 1", pub.putCount())
	}
	if first := pub.put(0); first.Delta || first.App != "player" || first.Host != "h1" || first.Space != "lab" {
		t.Fatalf("first put = %+v, want a full frame from h1/lab", first)
	}

	// Unchanged state: no new publish, and the fast path did the skip.
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if pub.putCount() != 1 {
		t.Fatalf("puts after idle sync = %d, want 1 (dedupe)", pub.putCount())
	}
	if s := rep.Stats(); s.SkippedClean == 0 {
		t.Fatalf("idle sync did not take the dirty fast path: %+v", s)
	}

	// Changed state: republished as a delta, smaller than the base.
	st, _ := a.Component("st")
	st.(*app.StateComponent).Set("cursor", "8")
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if pub.putCount() != 2 {
		t.Fatalf("puts after state change = %d, want 2", pub.putCount())
	}
	second := pub.put(1)
	if !second.Delta {
		t.Fatal("second publish was not a delta")
	}
	if len(second.Frame) >= len(pub.put(0).Frame) {
		t.Fatalf("delta frame (%d bytes) not smaller than base (%d bytes)",
			len(second.Frame), len(pub.put(0).Frame))
	}
	if v := recordValue(t, pub, "player", "st", "cursor"); v != "8" {
		t.Fatalf("record cursor after delta = %q, want 8", v)
	}
}

// countingComp counts Snapshot calls — the proof that clean apps cost
// zero serialization per tick.
type countingComp struct {
	*app.StateComponent
	snaps int32
}

func (c *countingComp) Snapshot() ([]byte, error) {
	atomic.AddInt32(&c.snaps, 1)
	return c.StateComponent.Snapshot()
}

func TestReplicatorZeroSerializationWhenClean(t *testing.T) {
	a := app.New("player", "h1", wsdl.Description{Name: "player"})
	cc := &countingComp{StateComponent: app.NewState("st")}
	cc.Set("cursor", "7")
	if err := a.AddComponent(cc); err != nil {
		t.Fatal(err)
	}
	big := app.NewSizedBlob("song", app.KindData, 1<<20)
	if err := a.AddComponent(big); err != nil {
		t.Fatal(err)
	}
	pub := newFakePublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	base := atomic.LoadInt32(&cc.snaps)

	// Ten idle ticks: not one Snapshot call, not one publish.
	for i := 0; i < 10; i++ {
		if err := rep.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&cc.snaps); got != base {
		t.Fatalf("idle ticks serialized the state component %d times", got-base)
	}
	if pub.putCount() != 1 {
		t.Fatalf("idle ticks published: %d puts", pub.putCount())
	}
	if s := rep.Stats(); s.SkippedClean != 10 {
		t.Fatalf("SkippedClean = %d, want 10", s.SkippedClean)
	}

	// A small mutation serializes the changed component once — and ships
	// a delta that does not carry the megabyte blob.
	cc.Set("cursor", "8")
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	last := pub.put(pub.putCount() - 1)
	if !last.Delta {
		t.Fatal("mutation did not publish a delta")
	}
	if len(last.Frame) > 4096 {
		t.Fatalf("delta for a tiny mutation is %d bytes (blob leaked in)", len(last.Frame))
	}
}

func TestReplicatorNeedFullFallback(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	// The center loses our base (restart / conflicting writer): the next
	// delta put is refused and the same capture degrades to a full frame.
	pub.mu.Lock()
	pub.needFullOnce = true
	pub.mu.Unlock()
	st, _ := a.Component("st")
	st.(*app.StateComponent).Set("cursor", "9")
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	last := pub.put(pub.putCount() - 1)
	if last.Delta {
		t.Fatal("refused delta was not followed by a full frame")
	}
	if v := recordValue(t, pub, "player", "st", "cursor"); v != "9" {
		t.Fatalf("record cursor after fallback = %q, want 9", v)
	}
	// And the pipeline recovers: the next change is a delta again.
	st.(*app.StateComponent).Set("cursor", "10")
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if last := pub.put(pub.putCount() - 1); !last.Delta {
		t.Fatal("pipeline did not resume deltas after the fallback")
	}
}

// TestReplicatorNotDurableRequeues: a put the publisher accepted but
// could not replicate to its peers (ErrNotDurable) must NOT advance the
// acked base — the replicator re-publishes the state every sync until a
// put meets the write concern, and Stats counts the shortfalls.
func TestReplicatorNotDurableRequeues(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	pub.setNotDurable(true)
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()

	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.NotDurable != 1 || s.Publishes != 0 {
		t.Fatalf("after shortfall: stats = %+v, want NotDurable=1 Publishes=0", s)
	}
	if pub.putCount() != 1 {
		t.Fatalf("puts = %d, want 1 (the write lands at the center)", pub.putCount())
	}

	// No mutation, but the state was never acked durable: it re-queues.
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.NotDurable != 2 || s.SkippedClean != 0 {
		t.Fatalf("re-queue did not happen: stats = %+v", s)
	}

	// Peers heal: the retry publishes for real and the baseline advances.
	pub.setNotDurable(false)
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.Publishes != 1 || s.NotDurable != 2 {
		t.Fatalf("post-heal stats = %+v, want Publishes=1", s)
	}
	if v := recordValue(t, pub, "player", "st", "cursor"); v != "7" {
		t.Fatalf("record cursor = %q, want 7", v)
	}
	// And only now does the dirty fast path start skipping.
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.SkippedClean != 1 {
		t.Fatalf("idle sync after heal did not skip: %+v", s)
	}
}

func TestReplicatorRebaselinesAfterChain(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	tune := noPacing
	tune.RebaseEvery = 2
	rep := newTestReplicator(a, pub, tune)
	ctx := context.Background()
	st, _ := a.Component("st")
	for i := 0; i < 6; i++ {
		st.(*app.StateComponent).Set("cursor", string(rune('a'+i)))
		if err := rep.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s := rep.Stats()
	if s.FullFrames < 2 {
		t.Fatalf("chain of 6 changes with RebaseEvery=2 produced %d full frames, want >= 2", s.FullFrames)
	}
	if s.DeltaFrames == 0 {
		t.Fatal("no deltas at all — re-baselining ate the pipeline")
	}
	if s.Rebaselines == 0 {
		t.Fatal("re-baseline policy never fired")
	}
	if v := recordValue(t, pub, "player", "st", "cursor"); v != "f" {
		t.Fatalf("final record cursor = %q, want f", v)
	}
}

func TestReplicatorBudgetDefersPeriodicCaptures(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	// 1 byte/s: after the first publish the app's budget is spent for
	// hours, so subsequent *periodic* captures must be deferred — while
	// an explicit SyncNow still publishes (it promises bounded lag).
	rep := state.NewReplicator("h1", "lab", func() []*app.Application { return []*app.Application{a} },
		pub, nil, time.Millisecond, state.Tuning{BudgetBytesPerSec: 1})
	rep.Start()
	defer rep.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for pub.putCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic loop never published the base")
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := a.Component("st")
	st.(*app.StateComponent).Set("cursor", "8")
	for rep.Stats().SkippedBudget == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("budget never deferred a periodic capture: %+v", rep.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if pub.putCount() != 1 {
		t.Fatalf("budget-deferred capture still published: %d puts", pub.putCount())
	}
	// SyncNow ignores the budget: the change publishes now.
	if err := rep.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pub.putCount() != 2 {
		t.Fatalf("forced SyncNow did not publish: %d puts", pub.putCount())
	}
}

func TestReplicatorForwardsRecordedSnapshots(t *testing.T) {
	a := testApp(t, "player", "h1")
	owned := true
	var mu sync.Mutex
	pub := newFakePublisher()
	rep := state.NewReplicator("h1", "lab", func() []*app.Application {
		mu.Lock()
		defer mu.Unlock()
		if !owned {
			return nil
		}
		return []*app.Application{a}
	}, pub, nil, time.Hour, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil { // attaches the OnRecord hook
		t.Fatal(err)
	}
	base := pub.putCount()

	// An explicitly recorded snapshot (e.g. pre-migrate) replicates
	// promptly (async, off the recording goroutine), without waiting for
	// the next capture interval — and as a delta, since the base is acked.
	a.Coordinator().Set("track", "t3")
	if _, err := a.Snapshots().Record("pre-migrate", time.Unix(50, 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pub.putCount() != base+1 {
		if time.Now().After(deadline) {
			t.Fatalf("puts after Record = %d, want %d", pub.putCount(), base+1)
		}
		time.Sleep(time.Millisecond)
	}
	if last := pub.put(pub.putCount() - 1); !last.Delta {
		t.Fatal("recorded snapshot against an acked base did not ship as a delta")
	}

	// Once the app leaves this host, recorded snapshots no longer publish
	// through this replicator.
	mu.Lock()
	owned = false
	mu.Unlock()
	a.Coordinator().Set("track", "t4")
	if _, err := a.Snapshots().Record("post-departure", time.Unix(60, 0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // would-be async publish window
	if pub.putCount() != base+1 {
		t.Fatalf("departed app still replicated: puts = %d, want %d", pub.putCount(), base+1)
	}
}

func TestReplicatorRetireTombstones(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rep.Retire(ctx, "player"); err != nil {
		t.Fatal(err)
	}
	pub.mu.Lock()
	drops := append([]string(nil), pub.drops...)
	pub.mu.Unlock()
	if len(drops) != 1 || drops[0] != "player" {
		t.Fatalf("drops = %v, want [player]", drops)
	}
	// Retire also forgets the replication baseline: a deliberately
	// restarted app (Reinstate) republishes — as a full frame, since the
	// tombstone wiped the center's base — even with identical content.
	rep.Reinstate("player")
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if pub.putCount() != 2 {
		t.Fatalf("puts after retire+reinstate+sync = %d, want 2", pub.putCount())
	}
	if last := pub.put(1); last.Delta {
		t.Fatal("post-reinstate publish must be a full frame")
	}
}

func TestReplicatorPeriodicLoop(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	rep := state.NewReplicator("h1", "lab", func() []*app.Application { return []*app.Application{a} },
		pub, nil, 2*time.Millisecond, noPacing)
	published := make(chan state.SnapshotPut, 16)
	rep.OnPublish(func(put state.SnapshotPut, _ state.SnapshotStamp) {
		select {
		case published <- put:
		default:
		}
	})
	rep.Start()
	defer rep.Stop()
	select {
	case put := <-published:
		if put.App != "player" {
			t.Fatalf("published app = %q", put.App)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("periodic loop never published")
	}
}

func TestRetireBlocksLatePublishesUntilReinstate(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newFakePublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rep.Retire(ctx, "player"); err != nil {
		t.Fatal(err)
	}
	// A capture racing the stop (here: arriving after Retire) must not
	// overwrite the tombstone.
	a.Coordinator().Set("track", "post-stop")
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if pub.putCount() != 1 {
		t.Fatalf("puts after retire = %d, want 1 (publish refused)", pub.putCount())
	}
	// A deliberate restart lifts the retirement.
	rep.Reinstate("player")
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if pub.putCount() != 2 {
		t.Fatalf("puts after reinstate = %d, want 2", pub.putCount())
	}
}

func TestVerifySnapshotCheapCheck(t *testing.T) {
	a := testApp(t, "x", "h1")
	w := mustWrap(t, a)
	snap, err := state.EncodeSnapshot(app.TaggedSnapshot{Tag: "r", At: time.Unix(1, 0), Wrap: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := state.VerifySnapshot(snap); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	tampered := append([]byte(nil), snap...)
	tampered[len(tampered)-1] ^= 0xFF
	if err := state.VerifySnapshot(tampered); !errors.Is(err, state.ErrChecksum) {
		t.Fatalf("tampered: err = %v, want ErrChecksum", err)
	}
	wrapFrame, _ := state.EncodeWrap(w)
	if err := state.VerifySnapshot(wrapFrame); !errors.Is(err, state.ErrKind) {
		t.Fatalf("wrap frame: err = %v, want ErrKind", err)
	}
	if err := state.VerifySnapshot([]byte("junk")); !errors.Is(err, state.ErrBadFrame) {
		t.Fatalf("junk: err = %v, want ErrBadFrame", err)
	}
}

// BenchmarkCaptureTick prices one periodic capture of a media-sized app
// (2 MB blob) in two regimes: unchanged (the dirty fast path — the idle
// tick whose instrumented cost must stay within 2x of the ~249 ns
// uninstrumented figure, BENCH.md PR 6) and a small mutation through
// the delta pipeline.
func BenchmarkCaptureTick(b *testing.B) {
	tune := state.Tuning{BudgetBytesPerSec: -1, RebaseEvery: 1 << 30, RebaseFraction: 1e9}
	mk := func() (*app.Application, *app.StateComponent, *state.Replicator) {
		a := app.New("player", "h1", wsdl.Description{Name: "player"})
		st := app.NewState("st")
		st.Set("cursor", "0")
		if err := a.AddComponent(st); err != nil {
			b.Fatal(err)
		}
		if err := a.AddComponent(app.NewSizedBlob("song", app.KindData, 2<<20)); err != nil {
			b.Fatal(err)
		}
		rep := state.NewReplicator("h1", "lab",
			func() []*app.Application { return []*app.Application{a} },
			newFakePublisher(), nil, time.Hour, tune)
		if err := rep.SyncNow(context.Background()); err != nil {
			b.Fatal(err)
		}
		return a, st, rep
	}

	b.Run("unchanged", func(b *testing.B) {
		_, _, rep := mk()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rep.SyncNow(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("small-change-delta", func(b *testing.B) {
		_, st, rep := mk()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Set("cursor", strconv.Itoa(i))
			if err := rep.SyncNow(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
