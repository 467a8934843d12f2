package netsim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mdagent/internal/vclock"
)

func newTestNet(t *testing.T) (*Network, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	n := New(clk, WithSeed(7))
	mustAdd := func(id, space string, p HostProfile, skew time.Duration) {
		t.Helper()
		if _, err := n.AddHost(id, space, p, skew); err != nil {
			t.Fatalf("AddHost(%s): %v", id, err)
		}
	}
	mustAdd("h1", "lab", Pentium4_1700(), 0)
	mustAdd("h2", "lab", PentiumM_1600(), 3*time.Second)
	return n, clk
}

func TestAddHostDuplicate(t *testing.T) {
	n, _ := newTestNet(t)
	if _, err := n.AddHost("h1", "lab", Pentium4_1700(), 0); err == nil {
		t.Fatal("duplicate AddHost succeeded, want error")
	}
}

func TestHostLookup(t *testing.T) {
	n, _ := newTestNet(t)
	h, ok := n.Host("h2")
	if !ok {
		t.Fatal("Host(h2) not found")
	}
	if h.Space != "lab" || h.Profile.Name != "PM-1.6GHz" {
		t.Fatalf("unexpected host: %+v", h)
	}
	if _, ok := n.Host("nope"); ok {
		t.Fatal("Host(nope) found, want miss")
	}
}

func TestIntraSpaceRoute(t *testing.T) {
	n, _ := newTestNet(t)
	r, err := n.RouteBetween("h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hops) != 2 || r.InterSpace || r.Gateways != 0 {
		t.Fatalf("route = %+v, want direct 2-hop intra-space", r)
	}
}

func TestSelfRoute(t *testing.T) {
	n, _ := newTestNet(t)
	r, err := n.RouteBetween("h1", "h1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hops) != 1 {
		t.Fatalf("self route hops = %v", r.Hops)
	}
	d, _, err := n.Transfer("h1", "h1", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("self transfer cost = %v, want 0", d)
	}
}

func TestInterSpaceRequiresGateway(t *testing.T) {
	n, _ := newTestNet(t)
	if _, err := n.AddHost("h3", "meeting-room", PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	_, err := n.RouteBetween("h1", "h3")
	if err == nil || !strings.Contains(err.Error(), "gateway") {
		t.Fatalf("err = %v, want gateway error", err)
	}
	// Paper Fig. 1: inter-space migration requires gateway support.
	if _, err := n.AddGateway("gw-lab", "lab", Pentium4_1700()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGateway("gw-meet", "meeting-room", Pentium4_1700()); err != nil {
		t.Fatal(err)
	}
	r, err := n.RouteBetween("h1", "h3")
	if err != nil {
		t.Fatal(err)
	}
	if !r.InterSpace || r.Gateways != 2 {
		t.Fatalf("route = %+v, want inter-space via 2 gateways", r)
	}
	if r.Hops[0] != "h1" || r.Hops[len(r.Hops)-1] != "h3" {
		t.Fatalf("route endpoints wrong: %v", r.Hops)
	}
}

func TestUnknownHostErrors(t *testing.T) {
	n, _ := newTestNet(t)
	if _, err := n.RouteBetween("ghost", "h1"); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := n.RouteBetween("h1", "ghost"); err == nil {
		t.Fatal("unknown destination accepted")
	}
	if _, _, err := n.Transfer("h1", "ghost", 10); err == nil {
		t.Fatal("transfer to unknown host accepted")
	}
}

func TestTransferChargesClock(t *testing.T) {
	n, clk := newTestNet(t)
	before := clk.Now()
	d, _, err := n.Transfer("h1", "h2", 1<<20) // 1 MiB over 10 Mbps
	if err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(before); got != d {
		t.Fatalf("clock advanced %v, Transfer reported %v", got, d)
	}
	// 1 MiB over 10 Mbps is ~839 ms nominal; allow jitter of ±3% + latency.
	if d < 700*time.Millisecond || d > time.Second {
		t.Fatalf("1MiB/10Mbps transfer = %v, want ~839ms", d)
	}
}

func TestEstimateDoesNotCharge(t *testing.T) {
	n, clk := newTestNet(t)
	before := clk.Now()
	est, err := n.EstimateTransfer("h1", "h2", 5<<20)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("estimate = %v, want > 0", est)
	}
	if !clk.Now().Equal(before) {
		t.Fatal("EstimateTransfer charged the clock")
	}
}

func TestTransferScalesWithBytes(t *testing.T) {
	n, _ := newTestNet(t)
	small, err := n.EstimateTransfer("h1", "h2", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	large, err := n.EstimateTransfer("h1", "h2", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(large) / float64(small)
	if ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("8x payload cost ratio = %.2f, want ~8 (bandwidth-bound)", ratio)
	}
}

func TestResponseTimeUnderPaperThreshold(t *testing.T) {
	// Paper Rule 3 moves only when responseTime < 1000 ms. On the testbed
	// LAN a small probe must come in well under that.
	n, _ := newTestNet(t)
	rt, err := n.ResponseTime("h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	if rt <= 0 || rt >= time.Second {
		t.Fatalf("LAN response time = %v, want (0, 1s)", rt)
	}
}

func TestSerializeCostModel(t *testing.T) {
	p := Pentium4_1700()
	zero := SerializeCost(p, 0)
	if zero != p.FixedSuspend {
		t.Fatalf("zero-byte serialize = %v, want fixed %v", zero, p.FixedSuspend)
	}
	mb := SerializeCost(p, 28e6) // exactly one second of throughput
	want := p.FixedSuspend + time.Second
	if diff := mb - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("28MB serialize = %v, want ~%v", mb, want)
	}
	if got := SerializeCost(p, -5); got != p.FixedSuspend {
		t.Fatalf("negative bytes = %v, want fixed", got)
	}
}

func TestChargeHelpers(t *testing.T) {
	n, clk := newTestNet(t)
	h, _ := n.Host("h1")
	before := clk.Now()
	d1 := n.ChargeSerialize(h, 1<<20)
	d2 := n.ChargeDeserialize(h, 1<<20)
	if got := clk.Now().Sub(before); got != d1+d2 {
		t.Fatalf("clock advanced %v, want %v", got, d1+d2)
	}
	if d2 <= d1-h.Profile.FixedResume+h.Profile.FixedSuspend {
		// Deserialize throughput is lower, so per-byte cost must be higher.
		t.Fatalf("deserialize (%v) should cost more per byte than serialize (%v)", d2, d1)
	}
}

func TestHostClockSkew(t *testing.T) {
	n, clk := newTestNet(t)
	h2, _ := n.Host("h2")
	if got := h2.Clock().Now().Sub(clk.Now()); got != 3*time.Second {
		t.Fatalf("h2 skew = %v, want 3s", got)
	}
}

func TestJitterDeterministic(t *testing.T) {
	run := func() time.Duration {
		clk := vclock.NewVirtual(time.Unix(0, 0))
		n := New(clk, WithSeed(42))
		if _, err := n.AddHost("a", "s", Pentium4_1700(), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddHost("b", "s", PentiumM_1600(), 0); err != nil {
			t.Fatal(err)
		}
		d, _, err := n.Transfer("a", "b", 3<<20)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave different costs: %v vs %v", a, b)
	}
}

// TestTransferMonotonicInBytes: nominal transfer estimates never decrease
// as payload grows.
func TestTransferMonotonicInBytes(t *testing.T) {
	n, _ := newTestNet(t)
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		el, err1 := n.EstimateTransfer("h1", "h2", lo)
		eh, err2 := n.EstimateTransfer("h1", "h2", hi)
		return err1 == nil && err2 == nil && el <= eh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCustomLinkOverridesDefault(t *testing.T) {
	n, _ := newTestNet(t)
	slow, err := n.EstimateTransfer("h1", "h2", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("h1", "h2", Ethernet100())
	fast, err := n.EstimateTransfer("h1", "h2", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if fast*5 > slow {
		t.Fatalf("100Mbps (%v) not ~10x faster than 10Mbps (%v)", fast, slow)
	}
}
