package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
)

// newSnapRig builds one served center plus a client endpoint on a local
// fabric — the smallest wire-protocol fixture.
func newSnapRig(t *testing.T) (*Center, *transport.Endpoint) {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	regDB, err := registry.New(store.OpenMemory())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := fab.Attach(CenterEndpointName("alpha"), "")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCenter("alpha", regDB, ep, testConfig())
	c.Serve(ep)
	cliEp, err := fab.Attach("client@test", "")
	if err != nil {
		t.Fatal(err)
	}
	return c, cliEp
}

// TestSnapPutFastCodecRoundTrip drives the raw frame codec over the
// awkward values: epoch timestamps (the virtual testbed clock starts at
// Unix(0,0)), empty concern, real digests.
func TestSnapPutFastCodecRoundTrip(t *testing.T) {
	puts := []state.SnapshotPut{
		mustSnapshot(t, "player", "hostA", "pos-1"),
		mustDelta(t, "player", "hostA", "pos-1", "pos-2"),
	}
	puts[0].Concern = "quorum"
	puts[1].At = time.Unix(0, 0) // epoch, not "zero time"

	for i, want := range puts {
		got, err := decodeSnapPut(encodeSnapPut(want))
		if err != nil {
			t.Fatalf("put %d decode: %v", i, err)
		}
		if got.App != want.App || got.Host != want.Host || got.Delta != want.Delta ||
			got.Concern != want.Concern || !got.At.Equal(want.At) {
			t.Fatalf("put %d header mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		if !bytes.Equal(got.Frame, want.Frame) {
			t.Fatalf("put %d frame mismatch (%d vs %d bytes)", i, len(got.Frame), len(want.Frame))
		}
		if got.BaseDigest != want.BaseDigest || got.NewDigest != want.NewDigest {
			t.Fatalf("put %d digest mismatch", i)
		}
	}

	outcomes := []snapOutcome{
		{Stamp: state.SnapshotStamp{Seq: 7, BaseSeq: 3, Chain: 4}},
		{NeedFull: true},
		{Stamp: state.SnapshotStamp{Seq: 9}, NotDurable: true},
	}
	for i, want := range outcomes {
		got, err := decodeSnapOutcomeReply(transport.SealFast(transport.OpSnapPutReply, appendSnapOutcome(nil, want)))
		if err != nil || got != want {
			t.Fatalf("outcome %d = %+v (err %v), want %+v", i, got, err, want)
		}
	}
}

// TestSnapshotFastPathAgainstCenter runs the client against a live
// center: stamps come back, and the in-band need-full signal survives
// the compact encoding.
func TestSnapshotFastPathAgainstCenter(t *testing.T) {
	_, cliEp := newSnapRig(t)
	ctx := context.Background()

	cli := NewSnapshotClient(cliEp, CenterEndpointName("alpha"))
	stamp, err := cli.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1"))
	if err != nil || stamp.Seq != 1 {
		t.Fatalf("fast full put: stamp=%+v err=%v", stamp, err)
	}
	stamp2, err := cli.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "pos-1", "pos-2"))
	if err != nil || stamp2.Seq != 2 || stamp2.Chain != 1 {
		t.Fatalf("fast delta put: stamp=%+v err=%v", stamp2, err)
	}
	// Typed in-band signal survives the compact encoding.
	if _, err := cli.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "bogus", "pos-3")); !errors.Is(err, state.ErrNeedFull) {
		t.Fatalf("stale-base delta over v2: err = %v, want ErrNeedFull", err)
	}
	if rec, found, err := cli.LatestSnapshot(ctx, "player"); err != nil || !found || snapValue(t, rec) != "pos-2" {
		t.Fatalf("fetch after fast puts: found=%v err=%v", found, err)
	}
}

// TestSnapshotPutRefusesGobSeal: the snapshot put has one encoding, so
// the retired gob-sealed request is refused with ErrVersion before its
// body is read, and nothing is stored.
func TestSnapshotPutRefusesGobSeal(t *testing.T) {
	center, cliEp := newSnapRig(t)
	payload, err := transport.EncodeSealed(mustSnapshot(t, "player", "hostA", "pos-1"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cliEp.Request(context.Background(), CenterEndpointName("alpha"), MsgPutSnapshot, payload)
	if !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("gob-sealed snapshot put: err = %v, want ErrVersion", err)
	}
	if _, found := center.LatestSnapshot("player"); found {
		t.Fatal("center stored a snapshot from a refused frame")
	}
}

// TestSnapshotClientReturnsVersionRefusal: a center from before the fast
// frame (the old handler shape — DecodeSealed or refuse) answers
// ErrVersion. The client returns it as the typed error it is, once, and
// does not re-send the put in another encoding.
func TestSnapshotClientReturnsVersionRefusal(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	srvEp, err := fab.Attach("old-center", "")
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int32
	srvEp.Handle(MsgPutSnapshot, func(msg transport.Message) ([]byte, error) {
		requests.Add(1)
		var put state.SnapshotPut
		if err := transport.DecodeSealed(msg.Payload, &put); err != nil {
			return nil, err
		}
		return nil, nil
	})
	cliEp, err := fab.Attach("new-client", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewSnapshotClient(cliEp, "old-center")
	if _, err := cli.PutSnapshot(context.Background(), mustSnapshot(t, "player", "hostA", "pos-1")); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("put against a pre-fast-frame center: err = %v, want ErrVersion", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("old center saw %d requests for one refused put, want exactly 1", n)
	}
}
