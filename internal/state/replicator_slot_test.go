package state_test

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/state"
)

// gatedPublisher is a fakePublisher whose puts can be held at the door:
// while gate is non-nil every PutSnapshot announces itself on entered and
// waits for the gate to close before it reaches the fake center. It also
// tracks how many puts per app are inside PutSnapshot at once and the
// order puts and drops completed in.
type gatedPublisher struct {
	*fakePublisher
	entered chan string // app of each put, sent before it waits

	mu        sync.Mutex
	gate      chan struct{}
	inflight  map[string]int
	maxPerApp int
	maxTotal  int
	events    []string // "put:<app>" / "drop:<app>", in completion order
}

func newGatedPublisher() *gatedPublisher {
	return &gatedPublisher{
		fakePublisher: newFakePublisher(),
		entered:       make(chan string, 64), // more than any test's puts: announcing never blocks
		inflight:      make(map[string]int),
	}
}

// hold makes subsequent puts wait; the returned func lets them through.
func (p *gatedPublisher) hold() (release func()) {
	gate := make(chan struct{})
	p.mu.Lock()
	p.gate = gate
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		p.gate = nil
		p.mu.Unlock()
		close(gate)
	}
}

func (p *gatedPublisher) PutSnapshot(ctx context.Context, put state.SnapshotPut) (state.SnapshotStamp, error) {
	p.mu.Lock()
	p.inflight[put.App]++
	total := 0
	for _, n := range p.inflight {
		total += n
	}
	p.maxPerApp = max(p.maxPerApp, p.inflight[put.App])
	p.maxTotal = max(p.maxTotal, total)
	gate := p.gate
	p.mu.Unlock()
	if gate != nil {
		p.entered <- put.App
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	stamp, err := p.fakePublisher.PutSnapshot(ctx, put)
	p.mu.Lock()
	p.inflight[put.App]--
	p.events = append(p.events, "put:"+put.App)
	p.mu.Unlock()
	return stamp, err
}

func (p *gatedPublisher) DropSnapshot(ctx context.Context, appName, host string) error {
	err := p.fakePublisher.DropSnapshot(ctx, appName, host)
	p.mu.Lock()
	p.events = append(p.events, "drop:"+appName)
	p.mu.Unlock()
	return err
}

func (p *gatedPublisher) snapshotEvents() (events []string, maxPerApp, maxTotal int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.events...), p.maxPerApp, p.maxTotal
}

func awaitEntered(t *testing.T, p *gatedPublisher, want string) {
	t.Helper()
	select {
	case got := <-p.entered:
		if got != want {
			t.Fatalf("put for %q entered the publisher, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no put for %q reached the publisher", want)
	}
}

func cursorOf(t *testing.T, a *app.Application) *app.StateComponent {
	t.Helper()
	c, ok := a.Component("st")
	if !ok {
		t.Fatal("test app lost its state component")
	}
	return c.(*app.StateComponent)
}

// Two different apps publish at the same time: each put waits at the
// gate until the other has arrived too. With one replicator-wide publish
// lock held across the put (the parent commit) the second capture never
// reaches the publisher and this times out.
func TestReplicatorDistinctAppsPublishConcurrently(t *testing.T) {
	a1, a2 := testApp(t, "player", "h1"), testApp(t, "editor", "h1")
	pub := newGatedPublisher()
	rep := state.NewReplicator("h1", "lab", func() []*app.Application { return []*app.Application{a1, a2} },
		pub, nil, time.Hour, noPacing)
	release := pub.hold()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errs := make(chan error, 2)
	for _, a := range []*app.Application{a1, a2} {
		go func() { errs <- rep.Capture(ctx, a) }()
	}
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case name := <-pub.entered:
			seen[name] = true
		case <-time.After(3 * time.Second):
			release()
			t.Fatalf("only %v reached the publisher: captures of different apps do not overlap", seen)
		}
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, _, maxTotal := pub.snapshotEvents(); maxTotal != 2 {
		t.Fatalf("max puts in flight = %d, want 2", maxTotal)
	}
	if st := rep.Stats(); st.Publishes != 2 || st.FullFrames != 2 {
		t.Fatalf("stats = %+v, want 2 full publishes", st)
	}
}

// Captures of one app never overlap, and what they publish chains: every
// delta's base is the state the previous put left.
func TestReplicatorSameAppPublishesOneAtATime(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newGatedPublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	const writers, rounds = 4, 25
	cursor := cursorOf(t, a)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cursor.Set("cursor", strconv.Itoa(w*rounds+i))
				if err := rep.Capture(ctx, a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cursor.Set("cursor", "final")
	if err := rep.Capture(ctx, a); err != nil {
		t.Fatal(err)
	}

	if _, maxPerApp, _ := pub.snapshotEvents(); maxPerApp != 1 {
		t.Fatalf("%d puts of one app were in flight at once, want 1", maxPerApp)
	}
	prev := pub.put(0).NewDigest
	for i := 1; i < pub.putCount(); i++ {
		put := pub.put(i)
		if put.Delta && put.BaseDigest != prev {
			t.Fatalf("put %d is a delta against a state the center does not hold", i)
		}
		prev = put.NewDigest
	}
	if v := recordValue(t, pub.fakePublisher, "player", "st", "cursor"); v != "final" {
		t.Fatalf("replicated cursor = %q, want final", v)
	}
}

// Retire waits out a publish already in flight, turns back a publisher
// queued behind it, and writes the tombstone last.
func TestRetireWaitsForInFlightPublish(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newGatedPublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	release := pub.hold()
	cursorOf(t, a).Set("cursor", "in-flight")
	inflight := make(chan error, 1)
	go func() { inflight <- rep.Capture(ctx, a) }()
	awaitEntered(t, pub, "player")

	queued := make(chan error, 1)
	go func() { queued <- rep.Capture(ctx, a) }() // waits for the slot, or is refused outright
	retired := make(chan error, 1)
	go func() { retired <- rep.Retire(ctx, "player") }()
	select {
	case err := <-retired:
		t.Fatalf("Retire returned (%v) while a publish was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	for _, ch := range []chan error{inflight, queued, retired} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	cursorOf(t, a).Set("cursor", "post-stop")
	if err := rep.Capture(ctx, a); err != nil {
		t.Fatal(err)
	}
	events, _, _ := pub.snapshotEvents()
	want := []string{"put:player", "put:player", "drop:player"}
	if len(events) != len(want) {
		t.Fatalf("publisher saw %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("publisher saw %v, want %v (nothing after the tombstone)", events, want)
		}
	}
	if _, ok := pub.record("player"); ok {
		t.Fatal("a record survived the tombstone")
	}
}

// ForceRepublish racing a capture: the capture in flight completes as the
// delta it was, the next capture ships one full frame even though nothing
// changed, and the one after that is back to the fast path.
func TestForceRepublishRacingCapture(t *testing.T) {
	a := testApp(t, "player", "h1")
	pub := newGatedPublisher()
	rep := newTestReplicator(a, pub, noPacing)
	ctx := context.Background()
	if err := rep.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	release := pub.hold()
	cursorOf(t, a).Set("cursor", "racing")
	captured := make(chan error, 1)
	go func() { captured <- rep.Capture(ctx, a) }()
	awaitEntered(t, pub, "player")
	forced := make(chan struct{})
	go func() { rep.ForceRepublish("player"); close(forced) }()
	release()
	if err := <-captured; err != nil {
		t.Fatal(err)
	}
	<-forced

	if n := pub.putCount(); n != 2 || !pub.put(1).Delta {
		t.Fatalf("after the race: %d puts, last delta=%v; want the in-flight delta only", n, pub.put(n-1).Delta)
	}
	for i := 0; i < 2; i++ {
		if err := rep.Capture(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	if n := pub.putCount(); n != 3 || pub.put(2).Delta {
		t.Fatalf("after ForceRepublish: %d puts, want exactly one more and it a full frame", n)
	}
	if st := rep.Stats(); st.FullFrames != 2 || st.DeltaFrames != 1 {
		t.Fatalf("stats = %+v, want 2 full + 1 delta", st)
	}
	if v := recordValue(t, pub.fakePublisher, "player", "st", "cursor"); v != "racing" {
		t.Fatalf("replicated cursor = %q, want racing", v)
	}
}

// A publish observer may call back into the replicator.
func TestStatsFromPublishObserver(t *testing.T) {
	a := testApp(t, "player", "h1")
	rep := newTestReplicator(a, newFakePublisher(), noPacing)
	seen := make(chan state.Stats, 1)
	rep.OnPublish(func(state.SnapshotPut, state.SnapshotStamp) { seen <- rep.Stats() })
	done := make(chan error, 1)
	go func() { done <- rep.SyncNow(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SyncNow deadlocked with an observer that reads Stats")
	}
	if st := <-seen; st.Publishes != 1 {
		t.Fatalf("observer saw %+v, want the publish already counted", st)
	}
}
