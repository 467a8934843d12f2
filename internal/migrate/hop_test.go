package migrate

import (
	"context"
	"runtime"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/demoapps"
	"mdagent/internal/gobcodec"
	"mdagent/internal/media"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
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
// once, off the socket into the one Payload the destination's handler
// owns. The source sends the check-in as parts — the head, the wrap
// frame's head, then the capture's own component slices — which the
// envelope writes to the socket as they are. That is one frame length;
// 1.5 per hop leaves nothing for a body buffer at the source, a second
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
	if limit := uint64(1.5 * float64(rep.BytesMoved)); perHop > limit {
		t.Fatalf("a cold static hop of a %d-byte frame allocated %d bytes (%.1fx), budget %d (1.5x)",
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

// tcpAdaptivePair builds the followme-roundtrip deployment inside this
// process the way mdagentd sets it up: two engines on their own
// transport.ListenTCP nodes sharing one registry, the player skeleton
// installed and registered on both, each node answering for its media
// name, and the player running on hostA with its 2 MB song in hostA's
// served library and registered as untransferable data. With served set
// the registry is a center on a third node, which the engines reach
// through a registry.Client, as mdagentd reaches mdregistry; otherwise
// they call the center in-process.
func tcpAdaptivePair(tb testing.TB, served bool) []*Engine {
	tb.Helper()
	ctx := context.Background()
	reg := newCenter(tb)
	var regAddr string
	if served {
		node, err := transport.ListenTCP("registry", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { node.Close() })
		if reg, err = cluster.NewCenter("", nil, node.Endpoint(), cluster.Config{}); err != nil {
			tb.Fatal(err)
		}
		reg.Serve(node.Endpoint())
		regAddr = node.Addr()
	}
	hosts := []string{"hostA", "hostB"}
	nodes := make([]*transport.TCPNode, len(hosts))
	for i, h := range hosts {
		node, err := transport.ListenTCP(EndpointName(h), "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { node.Close() })
		node.AddAlias(MediaEndpointName(h))
		nodes[i] = node
	}
	song := media.GenerateFile("song1", songSize, 3)
	engines := make([]*Engine, len(hosts))
	for i, h := range hosts {
		peer := hosts[1-i]
		nodes[i].AddPeer(EndpointName(peer), nodes[1-i].Addr())
		nodes[i].AddPeer(MediaEndpointName(peer), nodes[1-i].Addr())
		lib := media.NewLibrary(h)
		if i == 0 {
			lib.Add(song)
		}
		media.ServeLibrary(lib, nodes[i].Endpoint())
		dev := wsdl.DeviceProfile{Host: h, ScreenWidth: 1024, ScreenHeight: 768, MemoryMB: 512, HasAudio: true, HasDisplay: true}
		if err := reg.RegisterDevice(ctx, dev); err != nil {
			tb.Fatal(err)
		}
		var cat Catalog = reg
		if served {
			nodes[i].AddPeer("registry", regAddr)
			cat = registry.NewClient(nodes[i].Endpoint(), "registry")
		}
		engines[i] = NewEngine(h, dev, nodes[i].Endpoint(), nil, nil, cat, DefaultCosts())
		engines[i].InstallFactory("smart-media-player", demoapps.MediaPlayerSkeleton)
		if err := reg.RegisterApp(ctx, registry.AppRecord{
			Name: "smart-media-player", Host: h, Description: demoapps.MediaPlayerDesc(),
			Components: demoapps.MediaPlayerSkeletonComponents(),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := engines[0].Run(demoapps.NewMediaPlayer("hostA", song)); err != nil {
		tb.Fatal(err)
	}
	if err := reg.RegisterResource(ctx, demoapps.MusicResource(song, "hostA")); err != nil {
		tb.Fatal(err)
	}
	return engines
}

// pingPong moves the player legs times between the pair with adaptive
// binding, starting at engine at, and returns the index it ends on and
// the most bytes one leg moved.
func pingPong(tb testing.TB, engines []*Engine, at, legs int) (int, int64) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var moved int64
	for i := 0; i < legs; i++ {
		to := 1 - at
		rep, err := engines[at].FollowMe(ctx, "smart-media-player", engines[to].Host(), BindingAdaptive, owl.MatchSemantic)
		if err != nil {
			tb.Fatalf("leg %s -> %s: %v", engines[at].Host(), engines[to].Host(), err)
		}
		moved = max(moved, rep.BytesMoved)
		at = to
	}
	return at, moved
}

// adaptiveLegBudget bounds what one adaptive leg allocates in both
// engines together, averaged over legs both ways. A leg moves a few
// hundred bytes of state; what it does allocate is, on each leg into
// hostB, the 64 KiB prebuffer twice — once into the media server's reply,
// once off the socket, where the stream's window aliases it; the Go heap
// rounds each of those 64 KiB-and-a-header objects up to 72 KiB, about
// 74 KB per leg on average — plus per-message bookkeeping: about 95 KB
// per leg measured on linux/amd64, up to about 107 KB under -race, where
// sync.Pool drops entries at random and gob decoders are rebuilt. One
// more copy of the prebuffer would exceed the budget. Instantiating the
// installed skeleton shares its 400 KiB UI bundle with every earlier
// arrival (app.NewSizedBlob); a fresh bundle per arrival alone would
// exceed it too.
const adaptiveLegBudget = 115 << 10

// TestAdaptiveLegAllocationBudget: a follow-me leg into a host holding
// the player skeleton allocates for what it moves, not for the installed
// UI bundle it instantiates.
func TestAdaptiveLegAllocationBudget(t *testing.T) {
	engines := tcpAdaptivePair(t, false)
	// Warm-up legs: connections dialed and handshaken, the gob codec's
	// descriptors primed. No later leg ships a delta: the adaptive plan
	// leaves components behind, so FollowMe's warm check (every component
	// planned) never passes, and each measured leg is a cold wrap of the
	// one component the plan carries (playback-state).
	at, _ := pingPong(t, engines, 0, 4)
	const legs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, moved := pingPong(t, engines, at, legs)
	runtime.ReadMemStats(&after)
	if moved >= 4<<10 {
		t.Fatalf("a measured leg moved %d bytes: not a cold one-component wrap", moved)
	}
	perLeg := (after.TotalAlloc - before.TotalAlloc) / legs
	if perLeg > adaptiveLegBudget {
		t.Fatalf("an adaptive leg moving at most %d bytes allocated %d bytes, budget %d (the UI bundle is %d)",
			moved, perLeg, adaptiveLegBudget, 400<<10)
	}
	t.Logf("adaptive leg: at most %d bytes moved, %d bytes allocated", moved, perLeg)
}

// BenchmarkAdaptiveLegTCP prices one adaptive follow-me leg of the player
// between two TCP nodes in one process, each leg arriving at an installed
// skeleton: ns, bytes allocated and allocations per leg.
func BenchmarkAdaptiveLegTCP(b *testing.B) {
	engines := tcpAdaptivePair(b, false)
	at, _ := pingPong(b, engines, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	pingPong(b, engines, at, b.N)
}

// TestAdaptiveLegGobCalls holds an adaptive leg after warm-up (a cold
// wrap of the one state component the plan carries; no leg ships a
// delta) to its count budget, with the registry in-process and served on
// its own node: gob codec calls per leg, and requests per pair of legs
// (there and back) that the two engines send. The leg's framing is fast
// frames; what gob is left is the application's own (the wrap frame's
// head and one state component's body, each encoded once and decoded
// once).
func TestAdaptiveLegGobCalls(t *testing.T) {
	for _, tc := range []struct {
		name           string
		served         bool
		gobCalls, reqs uint64
	}{
		{"in-process center", false, 4, 3},
		{"served center", true, 4, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engines := tcpAdaptivePair(t, tc.served)
			at, _ := pingPong(t, engines, 0, 4)
			requests := func() uint64 { return engines[0].ep.Requests() + engines[1].ep.Requests() }
			const pairs = 4
			gob0, req0 := gobcodec.Calls(), requests()
			pingPong(t, engines, at, 2*pairs)
			gobPerLeg := float64(gobcodec.Calls()-gob0) / (2 * pairs)
			reqPerPair := float64(requests()-req0) / pairs
			t.Logf("%.2f gob calls per leg, %.2f requests per pair of legs", gobPerLeg, reqPerPair)
			if gobPerLeg > float64(tc.gobCalls) {
				t.Errorf("an adaptive leg made %.2f gob calls, budget %d", gobPerLeg, tc.gobCalls)
			}
			if reqPerPair > float64(tc.reqs) {
				t.Errorf("a pair of adaptive legs sent %.2f requests, budget %d", reqPerPair, tc.reqs)
			}
		})
	}
}
