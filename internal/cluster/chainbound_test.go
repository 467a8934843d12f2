package cluster

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// rawChain puts a base valued "0" and deltas 0→1→…→n through put, with
// no replicator in the loop.
func rawChain(t *testing.T, put func(state.SnapshotPut) (state.SnapshotStamp, error), n int) {
	t.Helper()
	if _, err := put(mustSnapshot(t, "player", "hostA", "0")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := put(mustDelta(t, "player", "hostA", strconv.Itoa(i-1), strconv.Itoa(i))); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
}

// TestCenterBoundsEveryChain: the center, not the publisher, bounds a
// snapshot chain. Whoever publishes, the delta after maxDeltaChain onto
// one base is refused with ErrNeedFull and the record is left as it was
// — in-process, through a SnapshotClient (the refusal arrives in-band),
// and at a peer, whose nack sends a durable pusher to the full record.
func TestCenterBoundsEveryChain(t *testing.T) {
	ninth := func(t *testing.T) state.SnapshotPut {
		return mustDelta(t, "player", "hostA", strconv.Itoa(maxDeltaChain), strconv.Itoa(maxDeltaChain+1))
	}
	checkFull := func(t *testing.T, c *Center, before snapView) {
		t.Helper()
		if before.Seq != maxDeltaChain+1 || before.BaseSeq != 1 || before.Chain != maxDeltaChain {
			t.Fatalf("chain before the refused delta: %+v", before)
		}
		if after := viewOf(t, c, "player"); !reflect.DeepEqual(after, before) {
			t.Fatalf("a refused delta changed the record:\nbefore %+v\nafter  %+v", before, after)
		}
	}

	t.Run("in-process", func(t *testing.T) {
		c := loneCenter(t)
		ctx := context.Background()
		put := func(p state.SnapshotPut) (state.SnapshotStamp, error) { return c.PutSnapshot(ctx, p) }
		rawChain(t, put, maxDeltaChain)
		before := viewOf(t, c, "player")
		if _, err := put(ninth(t)); !errors.Is(err, state.ErrNeedFull) {
			t.Fatalf("delta onto a full chain: err = %v, want ErrNeedFull", err)
		}
		checkFull(t, c, before)
		// The publisher's answer, a full frame, starts a new base.
		stamp, err := put(mustSnapshot(t, "player", "hostA", "9"))
		if err != nil || stamp.Seq != maxDeltaChain+2 || stamp.BaseSeq != stamp.Seq || stamp.Chain != 0 {
			t.Fatalf("full frame after the refusal: stamp %+v err %v", stamp, err)
		}
	})

	t.Run("heavy delta", func(t *testing.T) {
		// The size half of the rule: one delta that outweighs half the
		// base frame is refused on an otherwise empty chain.
		c := loneCenter(t)
		ctx := context.Background()
		if _, err := c.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "0")); err != nil {
			t.Fatal(err)
		}
		heavy := mustDelta(t, "player", "hostA", "0", strings.Repeat("x", 8<<10))
		if _, err := c.PutSnapshot(ctx, heavy); !errors.Is(err, state.ErrNeedFull) {
			t.Fatalf("delta heavier than half the base: err = %v, want ErrNeedFull", err)
		}
		if v := viewOf(t, c, "player"); v.Seq != 1 || v.Chain != 0 {
			t.Fatalf("a refused heavy delta changed the record: %+v", v)
		}
	})

	t.Run("snapshot client", func(t *testing.T) {
		fab := transport.NewLocalFabric(nil)
		t.Cleanup(func() { fab.Close() })
		ep, err := fab.Attach(CenterEndpointName("alpha"), "")
		if err != nil {
			t.Fatal(err)
		}
		c := NewCenter("alpha", nil, ep, testConfig())
		c.Serve(ep)
		cliEp, err := fab.Attach("client@test", "")
		if err != nil {
			t.Fatal(err)
		}
		cli := NewSnapshotClient(cliEp, CenterEndpointName("alpha"))
		ctx := context.Background()
		put := func(p state.SnapshotPut) (state.SnapshotStamp, error) { return cli.PutSnapshot(ctx, p) }
		rawChain(t, put, maxDeltaChain)
		before := viewOf(t, c, "player")
		if _, err := put(ninth(t)); !errors.Is(err, state.ErrNeedFull) {
			t.Fatalf("remote delta onto a full chain: err = %v, want in-band ErrNeedFull", err)
		}
		checkFull(t, c, before)
	})

	t.Run("peer", func(t *testing.T) {
		a, b := newCenterPair(t)
		ctx := context.Background()
		rawChain(t, func(p state.SnapshotPut) (state.SnapshotStamp, error) { return a.PutSnapshot(ctx, p) }, maxDeltaChain)
		waitSeq(t, b, maxDeltaChain+1)
		// alpha re-bases on the same state while beta misses the push,
		// so beta still holds a full chain ending where alpha's new base
		// starts.
		a.mu.Lock()
		delete(a.peers, "beta")
		a.mu.Unlock()
		if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", strconv.Itoa(maxDeltaChain))); err != nil {
			t.Fatal(err)
		}
		a.AddPeer("beta", CenterEndpointName("beta"))
		before := viewOf(t, b, "player")
		rejects := b.mRejects.Value()

		// beta refuses the pushed delta as a 9th; the durable push falls
		// back to alpha's whole record, which beta installs.
		d := ninth(t)
		d.Concern = string(WriteOne)
		stamp, err := a.PutSnapshot(ctx, d)
		if err != nil {
			t.Fatalf("durable delta put: %v", err)
		}
		if got := b.mRejects.Value() - rejects; got != 1 {
			t.Fatalf("beta rejected %d delta pushes, want 1 (the one onto its full chain)", got)
		}
		if before.Chain != maxDeltaChain {
			t.Fatalf("beta's chain before the push: %+v", before)
		}
		want := viewOf(t, a, "player")
		got := viewOf(t, b, "player")
		if got.Seq != stamp.Seq || got.BaseSeq != want.BaseSeq || got.Chain != want.Chain || got.Digest != want.Digest {
			t.Fatalf("beta did not converge on alpha's record:\nalpha %+v\nbeta  %+v", want, got)
		}
		if want.BaseSeq != maxDeltaChain+2 || want.Chain != 1 {
			t.Fatalf("alpha's record: %+v, want base %d and one delta", want, maxDeltaChain+2)
		}
	})
}

// loneCenter is a volatile center with no peers.
func loneCenter(t *testing.T) *Center {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach(CenterEndpointName("alpha"), "")
	if err != nil {
		t.Fatal(err)
	}
	return NewCenter("alpha", nil, ep, testConfig())
}

// waitSeq waits until c's player record reaches seq.
func waitSeq(t *testing.T, c *Center, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec, ok := c.LatestSnapshot("player"); ok && rec.Seq == seq {
			return
		}
		if time.Now().After(deadline) {
			rec, _ := c.LatestSnapshot("player")
			t.Fatalf("%s never reached seq %d (at %d)", c.Space(), seq, rec.Seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCorruptFullFrameIsRefused: a full frame failing its checksum is
// refused before anything is stored or enqueued. Stored, it would be
// served to restores, take deltas on top, and vanish at the next load.
func TestCorruptFullFrameIsRefused(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	c := openDiskCenter(t, fab, t.TempDir(), "alpha", testConfig())
	ctx := context.Background()
	put := mustSnapshot(t, "player", "hostA", "0")
	put.Frame = append([]byte(nil), put.Frame...)
	put.Frame[len(put.Frame)-1] ^= 0xff
	if _, err := c.PutSnapshot(ctx, put); !errors.Is(err, state.ErrChecksum) {
		t.Fatalf("corrupt full put: err = %v, want one wrapping ErrChecksum", err)
	}
	if _, ok := c.LatestSnapshot("player"); ok {
		t.Fatal("a refused full frame is served")
	}
	if _, err := c.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "0", "1")); !errors.Is(err, state.ErrNeedFull) {
		t.Fatalf("delta onto a refused base: err = %v, want ErrNeedFull", err)
	}
	if keys := chainKeys(c.Center); len(keys) != 0 {
		t.Fatalf("a refused full frame left chain keys %v", keys)
	}
	c.reopen(nil)
	if _, ok := c.LatestSnapshot("player"); ok {
		t.Fatal("a refused full frame came back after a reopen")
	}
}
