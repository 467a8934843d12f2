package migrate

import (
	"context"
	"runtime"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/owl"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// tcpRing builds the followme-static-cold deployment inside this process:
// one engine per host, each on its own transport.ListenTCP node, one
// registry, and the media player with its 2 MB song running on the first
// host. With three hosts and static binding every hop is cold — the
// source's warm base always belongs to the host before last.
func tcpRing(tb testing.TB, hosts ...string) []*Engine {
	tb.Helper()
	reg := newCenter(tb)
	nodes := make([]*transport.TCPNode, len(hosts))
	var err error
	for i, h := range hosts {
		if nodes[i], err = transport.ListenTCP(EndpointName(h), "127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		node := nodes[i]
		tb.Cleanup(func() { node.Close() })
	}
	engines := make([]*Engine, len(hosts))
	for i, h := range hosts {
		for j, peer := range hosts {
			if i != j {
				nodes[i].AddPeer(EndpointName(peer), nodes[j].Addr())
			}
		}
		engines[i] = NewEngine(h, wsdl.DeviceProfile{}, nodes[i].Endpoint(), nil, nil, reg, CostProfile{})
	}
	player := demoapps.NewMediaPlayer(hosts[0], media.GenerateFile("song1", songSize, 3))
	if err := engines[0].Run(player); err != nil {
		tb.Fatal(err)
	}
	return engines
}

// hopRing moves the player hops times along the ring, starting at engine
// at, and returns the index it ends on and the last hop's report.
func hopRing(tb testing.TB, engines []*Engine, at, hops int) (int, Report) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var rep Report
	for i := 0; i < hops; i++ {
		to := (at + 1) % len(engines)
		var err error
		rep, err = engines[at].FollowMe(ctx, "smart-media-player", engines[to].Host(), BindingStatic, owl.MatchSemantic)
		if err != nil {
			tb.Fatalf("hop %s -> %s: %v", engines[at].Host(), engines[to].Host(), err)
		}
		if rep.Delta || rep.BytesMoved < songSize {
			tb.Fatalf("hop %s -> %s was not cold: delta=%v, %d bytes moved",
				engines[at].Host(), engines[to].Host(), rep.Delta, rep.BytesMoved)
		}
		at = to
	}
	return at, rep
}

// TestStaticHopAllocationBudget: a cold static hop copies the application
// only where the bytes change owner — into the request buffer at the
// source, and out of the socket into the one Payload the destination's
// handler owns (the envelope writes from the request buffer itself).
// That is two frame lengths; 2.5 per hop leaves nothing for a second
// capture, a nested encode, an envelope copy or a copy on restore.
func TestStaticHopAllocationBudget(t *testing.T) {
	engines := tcpRing(t, "hostA", "hostB", "hostC")
	// Two laps first: connections dialed and handshaken, the gob codec's
	// descriptors primed.
	at, _ := hopRing(t, engines, 0, 2*len(engines))
	const hops = 6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	at, rep := hopRing(t, engines, at, hops)
	runtime.ReadMemStats(&after)
	perHop := (after.TotalAlloc - before.TotalAlloc) / hops
	if limit := uint64(2.5 * float64(rep.BytesMoved)); perHop > limit {
		t.Fatalf("a cold static hop of a %d-byte frame allocated %d bytes (%.1fx), budget %d (2.5x)",
			rep.BytesMoved, perHop, float64(perHop)/float64(rep.BytesMoved), limit)
	}
	t.Logf("cold static hop: %d-byte frame, %d bytes allocated (%.1fx)",
		rep.BytesMoved, perHop, float64(perHop)/float64(rep.BytesMoved))

	// The bytes that were shared all the way are still the song.
	inst, ok := engines[at].App("smart-media-player")
	if !ok {
		t.Fatalf("player is not on %s", engines[at].Host())
	}
	song, _ := inst.Component("song1")
	want := app.NewBlob("song1", app.KindData, media.GenerateFile("song1", songSize, 3).Data)
	if song.(*app.BlobComponent).Checksum() != want.Checksum() {
		t.Fatal("song corrupted on the way round the ring")
	}
}

// BenchmarkStaticHopTCP prices one cold static hop of the 2.77 MB player
// between TCP nodes in one process: ns, bytes allocated and allocations
// per hop (BENCH.md, PR 23).
func BenchmarkStaticHopTCP(b *testing.B) {
	engines := tcpRing(b, "hostA", "hostB", "hostC")
	at, rep := hopRing(b, engines, 0, len(engines))
	b.SetBytes(rep.BytesMoved)
	b.ReportAllocs()
	b.ResetTimer()
	hopRing(b, engines, at, b.N)
}
