package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"mdagent/internal/registry"
	"mdagent/internal/transport"
)

// durableConfig is testConfig with a synchronous write concern.
func durableConfig(wc WriteConcern) Config {
	cfg := testConfig()
	cfg.WriteConcern = wc
	cfg.AckTimeout = 200 * time.Millisecond
	return cfg
}

// newCenterTrio builds three fully meshed centers on one local fabric.
func newCenterTrio(t *testing.T, cfg Config) [3]*Center {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	var out [3]*Center
	for i, space := range []string{"alpha", "beta", "gamma"} {
		ep, err := fab.Attach(CenterEndpointName(space), "")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = volatileCenter(space, ep, cfg)
	}
	for i, a := range out {
		for j, b := range out {
			if i != j {
				a.AddPeer(b.Space(), CenterEndpointName(b.Space()))
			}
		}
	}
	return out
}

// TestDurableWriteBlocksUntilPeersHoldIt is the write-concern contract:
// when a quorum write returns without error, the pushed record is
// ALREADY on enough peers to survive the writer dying on the next
// instruction — no drain, no anti-entropy round.
func TestDurableWriteBlocksUntilPeersHoldIt(t *testing.T) {
	trio := newCenterTrio(t, durableConfig(WriteQuorum))
	ctx := context.Background()

	if err := trio[0].RegisterApp(ctx, registry.AppRecord{
		Name: "player", Host: "hostA", Description: appDesc("player"), Running: true,
	}); err != nil {
		t.Fatal(err)
	}
	onPeers := 0
	for _, peer := range trio[1:] {
		if _, found, _ := peer.LookupApp(ctx, "player", "hostA"); found {
			onPeers++
		}
	}
	if onPeers < 1 {
		t.Fatalf("quorum RegisterApp returned before any peer held the record")
	}

	if _, err := trio[0].PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1")); err != nil {
		t.Fatal(err)
	}
	onPeers = 0
	for _, peer := range trio[1:] {
		if _, ok := peer.LatestSnapshot("player"); ok {
			onPeers++
		}
	}
	if onPeers < 1 {
		t.Fatalf("quorum PutSnapshot returned before any peer held the snapshot")
	}
	// The writer's own copy carries the durability stamp, and the
	// durable stash serves it.
	if rec, ok := trio[0].LatestSnapshot("player"); !ok || !rec.Durable {
		t.Fatalf("writer head record not stamped durable: ok=%v durable=%v", ok, rec.Durable)
	}
	if dur, ok := trio[0].LatestDurableSnapshot("player"); !ok || snapValue(t, dur) != "pos-1" {
		t.Fatalf("durable stash missing or wrong: ok=%v", ok)
	}
	// The best-effort confirm (MsgFedDurable, FIFO-ordered behind the
	// data push) propagates the stamp to acking peers, so THEIR failover
	// planning prefers the same capture instead of a frozen older stash.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stamped := 0
		for _, peer := range trio[1:] {
			if dur, ok := peer.LatestDurableSnapshot("player"); ok && dur.Seq == 1 {
				stamped++
			}
		}
		if stamped >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durability confirm never stamped any acking peer")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableWriteShortfallReturnsErrNotDurable cuts the writer off from
// every peer (peers registered but their endpoints never attached): the
// write must land locally, return ErrNotDurable, and leave the record
// unstamped.
func TestDurableWriteShortfallReturnsErrNotDurable(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach(CenterEndpointName("alpha"), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(WriteOne)
	cfg.ProbeTimeout = 30 * time.Millisecond
	cfg.AckTimeout = 100 * time.Millisecond
	c := volatileCenter("alpha", ep, cfg)
	c.AddPeer("beta", CenterEndpointName("beta")) // never attached: unreachable
	ctx := context.Background()

	err = c.RegisterApp(ctx, registry.AppRecord{
		Name: "player", Host: "hostA", Description: appDesc("player"),
	})
	if !errors.Is(err, ErrNotDurable) {
		t.Fatalf("RegisterApp err = %v, want ErrNotDurable", err)
	}
	if _, found, _ := c.LookupApp(ctx, "player", "hostA"); !found {
		t.Fatal("write did not land locally despite the shortfall")
	}

	stamp, err := c.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1"))
	if !errors.Is(err, ErrNotDurable) {
		t.Fatalf("PutSnapshot err = %v, want ErrNotDurable", err)
	}
	if stamp.Seq != 1 {
		t.Fatalf("shortfall put did not return the local stamp: %+v", stamp)
	}
	if rec, ok := c.LatestSnapshot("player"); !ok || rec.Durable {
		t.Fatalf("record = ok:%v durable:%v, want stored but unstamped", ok, rec.Durable)
	}
	if _, ok := c.LatestDurableSnapshot("player"); ok {
		t.Fatal("durable stash filled by a write that never met its concern")
	}
}

// TestDegradedModeFailsFast wires a membership view that declares every
// peer unreachable: a quorum write must return ErrNotDurable immediately
// (no ack-timeout wait) and report Degraded.
func TestDegradedModeFailsFast(t *testing.T) {
	cfg := durableConfig(WriteQuorum)
	cfg.AckTimeout = 5 * time.Second // a timed-out wait would blow the test budget
	trio := newCenterTrio(t, cfg)
	trio[0].SetReachable(func(string) bool { return false })
	var events []DurabilityEvent
	trio[0].OnDurability(func(ev DurabilityEvent) { events = append(events, ev) })

	start := time.Now()
	err := trio[0].RegisterApp(context.Background(), registry.AppRecord{
		Name: "player", Host: "hostA", Description: appDesc("player"),
	})
	if !errors.Is(err, ErrNotDurable) {
		t.Fatalf("degraded write err = %v, want ErrNotDurable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("degraded write took %v, want a fast fail", elapsed)
	}
	if len(events) != 1 || !events[0].Degraded || events[0].Durable {
		t.Fatalf("durability events = %+v, want one degraded report", events)
	}
}

// TestDurableDeltaFallsBackToFullRecord exercises the ack-carrying delta
// push: the peer never saw the base (it was written while the peer's
// endpoint did not exist), so the delta push NACKs and the durable
// pusher must land the whole record instead — the write concern is met
// and the peer's copy reassembles to the new value.
func TestDurableDeltaFallsBackToFullRecord(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	mk := func(space string) *Center {
		ep, err := fab.Attach(CenterEndpointName(space), "")
		if err != nil {
			t.Fatal(err)
		}
		cfg := durableConfig(WriteOne)
		cfg.ProbeTimeout = 50 * time.Millisecond
		return volatileCenter(space, ep, cfg)
	}
	a := mk("alpha")
	a.AddPeer("beta", CenterEndpointName("beta"))
	ctx := context.Background()

	// Base write while beta does not exist: lands locally, not durable.
	if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1")); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("base put err = %v, want ErrNotDurable (no peer yet)", err)
	}

	// Beta appears (restarted center). It holds nothing.
	b := mk("beta")
	b.AddPeer("alpha", CenterEndpointName("alpha"))

	// A delta put against the stored base: beta cannot chain it, so the
	// durable push must fall back to the full record and still ack.
	if _, err := a.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "pos-1", "pos-2")); err != nil {
		t.Fatalf("delta put with fallback: %v", err)
	}
	got, ok := b.LatestSnapshot("player")
	if !ok {
		t.Fatal("fallback full record never reached the revived peer")
	}
	if v := snapValue(t, got); v != "pos-2" {
		t.Fatalf("peer value = %q, want pos-2", v)
	}
	if rec, _ := a.LatestSnapshot("player"); !rec.Durable {
		t.Fatal("delta write not stamped durable after the fallback ack")
	}
}

// TestServeRejectsMalformedWriteConcernHeader sends a put whose
// write-concern header parses to nothing sensible: the center must
// refuse it outright — before storing or enqueueing anything — and keep
// serving valid puts and peer pushes afterwards (the FIFO push workers
// must not be poisoned).
func TestServeRejectsMalformedWriteConcernHeader(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	mk := func(space string) *Center {
		ep, err := fab.Attach(CenterEndpointName(space), "")
		if err != nil {
			t.Fatal(err)
		}
		return volatileCenter(space, ep, testConfig()).Serve(ep)
	}
	a, b := mk("alpha"), mk("beta")
	a.AddPeer("beta", CenterEndpointName("beta"))
	b.AddPeer("alpha", CenterEndpointName("alpha"))
	cliEp, err := fab.Attach("client@test", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewSnapshotClient(cliEp, CenterEndpointName("alpha"))
	ctx := context.Background()

	bad := mustSnapshot(t, "player", "hostA", "pos-1")
	bad.Concern = "paxos"
	if _, err := cli.PutSnapshot(ctx, bad); err == nil {
		t.Fatal("malformed write-concern header accepted")
	}
	if _, ok := a.LatestSnapshot("player"); ok {
		t.Fatal("malformed put stored a record")
	}

	// The handler refused before touching the push path: valid puts
	// still work and still replicate to the peer.
	good := mustSnapshot(t, "player", "hostA", "pos-2")
	good.Concern = string(WriteAsync)
	if _, err := cli.PutSnapshot(ctx, good); err != nil {
		t.Fatalf("valid put after malformed header: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := b.LatestSnapshot("player"); ok && snapValue(t, got) == "pos-2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("push worker never delivered after the malformed request")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotClientConnectionDropMidAck runs a center-shaped TCP
// listener that completes the link handshake, reads each request and
// slams the connection shut before any reply bytes: the client must
// surface a bounded error (its context), not a hang or a panic, and must
// recover once pointed at a real center.
func TestSnapshotClientConnectionDropMidAck(t *testing.T) {
	preamble, err := os.ReadFile("../transport/testdata/wire/preamble.bin")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Answer the dialer's preamble with this build's, read exactly
			// one request envelope (header and payload lengths, then both),
			// then drop the connection without replying — the "mid-ack"
			// failure.
			prefix := make([]byte, 8)
			if _, err := io.ReadFull(conn, make([]byte, len(preamble))); err == nil {
				conn.Write(preamble)
				if _, err := io.ReadFull(conn, prefix); err == nil {
					n := int64(binary.BigEndian.Uint32(prefix)) + int64(binary.BigEndian.Uint32(prefix[4:]))
					io.CopyN(io.Discard, conn, n)
				}
			}
			conn.Close()
		}
	}()

	node, err := transport.ListenTCP("client@test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.AddPeer(CenterEndpointName("drop"), ln.Addr().String())
	cli := NewSnapshotClient(node.Endpoint(), CenterEndpointName("drop"))

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1"))
	if err == nil {
		t.Fatal("put against a connection-dropping center reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client hung %v on a dropped connection", elapsed)
	}

	// Recovery: the same client node reaches a real center afterwards.
	srv, err := transport.ListenTCP(CenterEndpointName("real"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	volatileCenter("real", srv.Endpoint(), testConfig()).Serve(srv.Endpoint())
	node.AddPeer(CenterEndpointName("real"), srv.Addr())
	cli2 := NewSnapshotClient(node.Endpoint(), CenterEndpointName("real"))
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := cli2.PutSnapshot(ctx2, mustSnapshot(t, "player", "hostA", "pos-2")); err != nil {
		t.Fatalf("client did not recover after the dropped connection: %v", err)
	}

	ln.Close()
	wg.Wait()
}

// TestFailoverPrefersDurableSnapshot is the Rehome bugfix: with a
// durable (quorum-acked) capture on record and a fresher capture that
// never met its concern, failover must restore the durable one — the
// fresher write may be a minority-partition artifact the rest of the
// federation never saw.
func TestFailoverPrefersDurableSnapshot(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	mk := func(space string, cfg Config) *Center {
		ep, err := fab.Attach(CenterEndpointName(space), "")
		if err != nil {
			t.Fatal(err)
		}
		return volatileCenter(space, ep, cfg)
	}
	cfg := durableConfig(WriteQuorum)
	cfg.ProbeTimeout = 50 * time.Millisecond
	cfg.AckTimeout = 100 * time.Millisecond
	a := mk("alpha", cfg)
	b := mk("beta", testConfig())
	a.AddPeer("beta", CenterEndpointName("beta"))
	b.AddPeer("alpha", CenterEndpointName("alpha"))
	ctx := context.Background()

	// Durable capture: both centers hold pos-1, alpha stamps it.
	if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1")); err != nil {
		t.Fatal(err)
	}

	// The federation partitions: alpha's pushes fail, so a fresher
	// capture lands only on alpha and comes back ErrNotDurable.
	a.mu.Lock()
	a.peers["beta"] = "severed@nowhere"
	a.pushers = map[string]chan pushItem{} // fresh workers against the dead name
	a.mu.Unlock()
	if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-2")); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("partitioned put err = %v, want ErrNotDurable", err)
	}

	f := &Failover{Center: a, RestoreState: true}
	snap := f.snapshotFor("player")
	if snap == nil {
		t.Fatal("no snapshot chosen")
	}
	if !snap.Durable {
		t.Fatalf("failover picked the unacked head (seq %d)", snap.Seq)
	}
	if v := snapValue(t, *snap); v != "pos-1" {
		t.Fatalf("restored value = %q, want the quorum-acked pos-1", v)
	}

	// Sanity: with no durable copy at all, the head is still used.
	f2 := &Failover{Center: b, RestoreState: true}
	if snap := f2.snapshotFor("player"); snap == nil || snapValue(t, *snap) != "pos-1" {
		t.Fatal("plain head restore broken on the peer")
	}
}
