package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// batchLog records what one center's batch handler received.
type batchLog struct {
	mu      sync.Mutex
	batches [][]pushItem // items copied out of each request
}

func (l *batchLog) counts() (batches, items int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.batches {
		items += len(b)
	}
	return len(l.batches), items
}

// logBatches wraps c's batch handler: every request is recorded, then
// before (when set) runs, then c applies it as usual.
func logBatches(t *testing.T, c *Center, before func()) *batchLog {
	t.Helper()
	l := &batchLog{}
	c.ep.Handle(MsgFedBatch, func(msg transport.Message) ([]byte, error) {
		items, err := decodeFedBatch(msg.Payload)
		if err != nil {
			t.Errorf("%s got an undecodable batch: %v", c.space, err)
			return nil, err
		}
		for i := range items {
			items[i].payload = bytes.Clone(items[i].payload)
		}
		l.mu.Lock()
		l.batches = append(l.batches, items)
		l.mu.Unlock()
		if before != nil {
			before()
		}
		return c.handleFedBatch(msg)
	})
	return l
}

// batchCenters builds centers with the given spaces on one local fabric,
// fully meshed. The spaces name the process-wide metric series, so each
// test uses its own.
func batchCenters(t *testing.T, cfg Config, spaces ...string) []*Center {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	out := make([]*Center, len(spaces))
	for i, space := range spaces {
		ep, err := fab.Attach(CenterEndpointName(space), "")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = NewCenter(space, nil, ep, cfg)
		t.Cleanup(out[i].Stop)
	}
	for _, a := range out {
		for _, b := range out {
			if a != b {
				a.AddPeer(b.Space(), CenterEndpointName(b.Space()))
			}
		}
	}
	return out
}

// holdQueue gives c a push queue to peer that no worker drains yet, so a
// test can fill it and then start the worker on everything at once.
func holdQueue(c *Center, peer string) (start func()) {
	ep := CenterEndpointName(peer)
	q := make(chan pushItem, 256)
	c.mu.Lock()
	c.pushers[ep] = q
	c.mu.Unlock()
	return func() {
		c.wg.Add(1)
		go c.pushWorker(ep, q)
	}
}

// TestRacingQuorumWritersShareBatches: two writers on different apps
// race quorum snapshot puts through one center. Each peer receives fewer
// batches than items, chains every delta in write order, and both
// writers get their durable verdicts.
func TestRacingQuorumWritersShareBatches(t *testing.T) {
	cfg := durableConfig(WriteQuorum)
	cfg.ProbeTimeout = 2 * time.Second
	cfg.AckTimeout = 5 * time.Second
	cs := batchCenters(t, cfg, "race-w", "race-p1", "race-p2")
	w := cs[0]
	logs := []*batchLog{
		logBatches(t, cs[1], func() { time.Sleep(200 * time.Microsecond) }),
		logBatches(t, cs[2], func() { time.Sleep(200 * time.Microsecond) }),
	}
	rejects := []int64{cs[1].mRejects.Value(), cs[2].mRejects.Value()}

	const deltas = maxDeltaChain
	apps := []string{"player", "notes"}
	puts := make([][]state.SnapshotPut, len(apps))
	for i, a := range apps {
		puts[i] = append(puts[i], mustSnapshot(t, a, "hostA", "v0"))
		for d := 1; d <= deltas; d++ {
			puts[i] = append(puts[i], mustDelta(t, a, "hostA", fmt.Sprintf("v%d", d-1), fmt.Sprintf("v%d", d)))
		}
	}
	errs := make(chan error, len(apps)*(deltas+1))
	var wg sync.WaitGroup
	for i := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, put := range puts[i] {
				_, err := w.PutSnapshot(context.Background(), put)
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("racing quorum put: %v", err)
		}
	}

	// Every put pushes its data and then its durable mark to each peer.
	want := 2 * len(apps) * (deltas + 1)
	deadline := time.Now().Add(5 * time.Second)
	for i, l := range logs {
		for {
			if _, items := l.counts(); items >= want {
				break
			}
			if time.Now().After(deadline) {
				_, items := l.counts()
				t.Fatalf("peer %d received %d of %d items", i+1, items, want)
			}
			time.Sleep(time.Millisecond)
		}
		batches, items := l.counts()
		t.Logf("peer %d: %d items in %d batches", i+1, items, batches)
		if items != want || batches >= items {
			t.Fatalf("peer %d: %d items in %d batches, want %d items in fewer batches", i+1, items, batches, want)
		}
	}
	for i, p := range cs[1:] {
		// The last batch may still be applying.
		waitFor(t, func() bool {
			for _, a := range apps {
				if rec, ok := p.LatestSnapshot(a); !ok || rec.Seq != deltas+1 {
					return false
				}
			}
			return true
		})
		if got := p.mRejects.Value() - rejects[i]; got != 0 {
			t.Fatalf("peer %d refused %d deltas: the batches reordered a chain", i+1, got)
		}
		for _, a := range apps {
			rec, _ := p.LatestSnapshot(a)
			if len(rec.Deltas) != deltas || snapValue(t, rec) != fmt.Sprintf("v%d", deltas) {
				t.Fatalf("peer %d holds %s with %d deltas, want the whole chain", i+1, a, len(rec.Deltas))
			}
		}
	}
	for _, a := range apps {
		if rec, ok := w.LatestSnapshot(a); !ok || !rec.Durable {
			t.Fatalf("writer's %s head not stamped durable", a)
		}
	}
}

// TestNackedDeltaMidBatchFallsBackAlone: a peer that never saw a base
// refuses the delta in the middle of a batch. The writer sends exactly
// one full-record fallback for it, as a batch of one, and the verdicts
// of the items around it stand.
func TestNackedDeltaMidBatchFallsBackAlone(t *testing.T) {
	cfg := durableConfig(WriteOne)
	cfg.ProbeTimeout = 2 * time.Second
	cfg.AckTimeout = 5 * time.Second
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	mk := func(space string) *Center {
		ep, err := fab.Attach(CenterEndpointName(space), "")
		if err != nil {
			t.Fatal(err)
		}
		c := NewCenter(space, nil, ep, cfg)
		t.Cleanup(c.Stop)
		return c
	}
	a := mk("nack-a")
	a.AddPeer("nack-b", CenterEndpointName("nack-b"))
	ctx := context.Background()

	// The base lands on a alone: b does not exist yet.
	if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1")); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("base put err = %v, want ErrNotDurable", err)
	}
	b := mk("nack-b")
	b.AddPeer("nack-a", CenterEndpointName("nack-a"))
	log := logBatches(t, b, nil)
	start := holdQueue(a, "nack-b")

	// Three writers queue an app, the delta and another app, in that
	// order, behind a worker that is not running yet.
	delta := mustDelta(t, "player", "hostA", "pos-1", "pos-2")
	writes := []func() error{
		func() error {
			return a.RegisterApp(ctx, registry.AppRecord{Name: "before", Host: "hostA", Description: appDesc("before")})
		},
		func() error { _, err := a.PutSnapshot(ctx, delta); return err },
		func() error {
			return a.RegisterApp(ctx, registry.AppRecord{Name: "after", Host: "hostA", Description: appDesc("after")})
		},
	}
	errs := make([]chan error, len(writes))
	for i, write := range writes {
		errs[i] = make(chan error, 1)
		go func() { errs[i] <- write() }()
		waitFor(t, func() bool {
			a.mu.Lock()
			defer a.mu.Unlock()
			return len(a.pushers[CenterEndpointName("nack-b")]) == i+1
		})
	}
	start()
	for i := range writes {
		if err := <-errs[i]; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	log.mu.Lock()
	batches := log.batches
	log.mu.Unlock()
	if len(batches) < 2 || len(batches[0]) != 3 {
		t.Fatalf("b received batches of %v items, want the three queued writes in one", batchSizes(batches))
	}
	if kinds := []byte{batches[0][0].kind, batches[0][1].kind, batches[0][2].kind}; !bytes.Equal(kinds, []byte{fedPush, fedSnapDelta, fedPush}) {
		t.Fatalf("first batch kinds %v, want push, delta, push", kinds)
	}
	fallbacks := 0
	for _, batch := range batches[1:] {
		for _, it := range batch {
			if it.kind != fedPush {
				continue
			}
			var p pushMsg
			if err := transport.Decode(it.payload, &p); err != nil {
				t.Fatal(err)
			}
			if len(p.Records) == 1 && p.Records[0].Key == snapKey("player") {
				if len(batch) != 1 {
					t.Fatalf("fallback rode in a batch of %d", len(batch))
				}
				fallbacks++
			}
		}
	}
	if fallbacks != 1 {
		t.Fatalf("%d full-record fallbacks for one refused delta, want 1", fallbacks)
	}
	for _, name := range []string{"before", "after"} {
		if _, found, _ := b.LookupApp(ctx, name, "hostA"); !found {
			t.Fatalf("b lost %s, the item beside the refused delta", name)
		}
	}
	if rec, ok := b.LatestSnapshot("player"); !ok || snapValue(t, rec) != "pos-2" {
		t.Fatal("the fallback did not land the delta's write on b")
	}
}

// TestFailedBatchAnswersEveryItem: a batch whose request fails (the
// peer's endpoint is closed) yields exactly one verdict per durable
// item, at once, so no writer waits out AckTimeout on a missing send.
func TestFailedBatchAnswersEveryItem(t *testing.T) {
	cfg := durableConfig(WriteOne)
	cfg.AckTimeout = 5 * time.Second
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach(CenterEndpointName("fail-a"), "")
	if err != nil {
		t.Fatal(err)
	}
	a := NewCenter("fail-a", nil, ep, cfg)
	t.Cleanup(a.Stop)
	peerEp, err := fab.Attach(CenterEndpointName("fail-b"), "")
	if err != nil {
		t.Fatal(err)
	}
	peerEp.Close()
	a.AddPeer("fail-b", CenterEndpointName("fail-b"))
	start := holdQueue(a, "fail-b")

	const n = 5
	acks := make(chan error, 2*n)
	a.mu.Lock()
	for i := 0; i < n; i++ {
		a.enqueuePushLocked(fedPush, transport.MustEncode(pushMsg{From: a.space}), fmt.Sprint("k", i), acks)
	}
	a.mu.Unlock()
	batches := a.mBatch.Value()
	began := time.Now()
	start()
	for i := 0; i < n; i++ {
		select {
		case err := <-acks:
			if err == nil {
				t.Fatalf("item %d acked by a closed peer", i)
			}
		case <-time.After(time.Second):
			t.Fatalf("%d of %d verdicts after 1 s", i, n)
		}
	}
	if d := time.Since(began); d > cfg.AckTimeout/2 {
		t.Fatalf("verdicts took %v", d)
	}
	if got := a.mBatch.Value() - batches; got != 1 {
		t.Fatalf("%d batch requests for %d queued items, want 1", got, n)
	}
	select {
	case err := <-acks:
		t.Fatalf("a second verdict for one item: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The same through the write path: the writer hears at once.
	began = time.Now()
	if err := a.RegisterApp(context.Background(), registry.AppRecord{Name: "player", Host: "hostA", Description: appDesc("player")}); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("write against a closed peer: %v, want ErrNotDurable", err)
	}
	if d := time.Since(began); d > cfg.AckTimeout/2 {
		t.Fatalf("the writer waited %v for a failed batch", d)
	}
}

// TestBatchStopsAtOneMebibyte: a worker stops a batch before the item
// that would take it past maxBatchBytes, and an item bigger than that
// goes alone.
func TestBatchStopsAtOneMebibyte(t *testing.T) {
	cfg := testConfig()
	cfg.ProbeTimeout = 5 * time.Second
	cs := batchCenters(t, cfg, "big-a", "big-b")
	a, b := cs[0], cs[1]
	log := logBatches(t, b, nil)
	start := holdQueue(a, "big-b")
	ctx := context.Background()
	sizes := []int{400 << 10, 400 << 10, 400 << 10, 3 * maxBatchBytes / 2, 10}
	for i, size := range sizes {
		if err := a.PutBundle(ctx, fmt.Sprint("bundle-", i), bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	start()
	waitFor(t, func() bool {
		for i := range sizes {
			if raw, ok, _ := b.GetBundle(ctx, fmt.Sprint("bundle-", i)); !ok || len(raw) != sizes[i] {
				return false
			}
		}
		return true
	})
	log.mu.Lock()
	got := batchSizes(log.batches)
	log.mu.Unlock()
	if want := []int{2, 1, 1, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batches of %v items, want %v", got, want)
	}
}

func batchSizes(batches [][]pushItem) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in 5 s")
		}
		time.Sleep(time.Millisecond)
	}
}
