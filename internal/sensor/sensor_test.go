package sensor

import (
	"context"
	"math"
	"testing"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/vclock"
)

func labField(t *testing.T) (*Field, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	f := NewField(clk, WithFieldSeed(5))
	f.AddRoom("office821", Point{X: 0, Y: 0})
	f.AddRoom("office822", Point{X: 8, Y: 0})
	f.AddRoom("corridor", Point{X: 4, Y: 6})
	return f, clk
}

func TestAddBadgeValidation(t *testing.T) {
	f, _ := labField(t)
	if err := f.AddBadge("b1", "alice", "atlantis"); err == nil {
		t.Fatal("unknown room accepted")
	}
	if err := f.AddBadge("b1", "alice", "office821"); err != nil {
		t.Fatal(err)
	}
	if u, ok := f.User("b1"); !ok || u != "alice" {
		t.Fatalf("User = %q, %v", u, ok)
	}
	if _, ok := f.User("ghost"); ok {
		t.Fatal("ghost badge found")
	}
}

func TestMoveBadgeValidation(t *testing.T) {
	f, _ := labField(t)
	if err := f.MoveBadge("nobody", "office821"); err == nil {
		t.Fatal("unknown badge accepted")
	}
	if err := f.AddBadge("b1", "alice", "office821"); err != nil {
		t.Fatal(err)
	}
	if err := f.MoveBadge("b1", "atlantis"); err == nil {
		t.Fatal("unknown room accepted")
	}
	if err := f.MoveBadge("b1", "office822"); err != nil {
		t.Fatal(err)
	}
}

func TestSampleProducesBadgeAndDistanceReadings(t *testing.T) {
	f, _ := labField(t)
	if err := f.AddBadge("b1", "alice", "office821"); err != nil {
		t.Fatal(err)
	}
	rs := f.Sample()
	var badges, distances int
	for _, r := range rs {
		switch r.Kind {
		case KindBadge:
			badges++
			if r.Badge != "b1" {
				t.Fatalf("badge reading = %+v", r)
			}
		case KindDistance:
			distances++
			if r.Distance < 0 {
				t.Fatalf("negative distance: %+v", r)
			}
		}
	}
	if badges != 1 {
		t.Fatalf("badge readings = %d, want 1", badges)
	}
	// office821 beacon at 0m, office822 at 8m, corridor at ~7.2m: all
	// within the 12m default range.
	if distances != 3 {
		t.Fatalf("distance readings = %d, want 3", distances)
	}
}

func TestNearestBeaconMatchesRoom(t *testing.T) {
	f, _ := labField(t)
	if err := f.AddBadge("b1", "alice", "office822"); err != nil {
		t.Fatal(err)
	}
	rs := f.Sample()
	best := ""
	bestD := math.Inf(1)
	for _, r := range rs {
		if r.Kind == KindDistance && r.Distance < bestD {
			bestD = r.Distance
			best = r.Beacon
		}
	}
	room, ok := f.BeaconRoom(best)
	if !ok || room != "office822" {
		t.Fatalf("nearest beacon %q resolves to %q, want office822", best, room)
	}
	if _, ok := f.BeaconRoom("bogus"); ok {
		t.Fatal("bogus beacon resolved")
	}
}

func TestOutOfRangeBeaconsFiltered(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	f := NewField(clk, WithFieldSeed(5))
	f.AddRoom("near", Point{X: 0, Y: 0})
	f.AddRoom("far", Point{X: 100, Y: 100})
	if err := f.AddBadge("b1", "alice", "near"); err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Sample() {
		if r.Kind == KindDistance {
			if room, _ := f.BeaconRoom(r.Beacon); room == "far" {
				t.Fatal("out-of-range beacon produced a reading")
			}
		}
	}
}

func TestNoiseDeterministicWithSeed(t *testing.T) {
	run := func() []Reading {
		clk := vclock.NewVirtual(time.Unix(0, 0))
		f := NewField(clk, WithFieldSeed(42), WithNoise(0.3))
		f.AddRoom("r", Point{})
		if err := f.AddBadge("b", "u", "r"); err != nil {
			t.Fatal(err)
		}
		return f.Sample()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Distance != b[i].Distance {
			t.Fatalf("reading %d differs: %v vs %v", i, a[i].Distance, b[i].Distance)
		}
	}
}

func TestWalkerChargesClockAndEmits(t *testing.T) {
	f, clk := labField(t)
	if err := f.AddBadge("b1", "alice", "office821"); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(f, 500*time.Millisecond)
	script := Script{Badge: "b1", Steps: []Step{
		{Room: "office821", Dwell: 2 * time.Second},
		{Room: "corridor", Dwell: time.Second},
		{Room: "office822", Dwell: 2 * time.Second},
	}}
	var batches int
	start := clk.Now()
	if err := w.Run(context.Background(), script, func(rs []Reading) { batches++ }); err != nil {
		t.Fatal(err)
	}
	if batches != 10 { // 4 + 2 + 4 ticks of 500ms
		t.Fatalf("batches = %d, want 10", batches)
	}
	if got := clk.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("virtual elapsed = %v, want 5s", got)
	}
}

func TestWalkerUnknownRoomFails(t *testing.T) {
	f, _ := labField(t)
	if err := f.AddBadge("b1", "alice", "office821"); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(f, time.Second)
	err := w.Run(context.Background(), Script{Badge: "b1", Steps: []Step{{Room: "void", Dwell: time.Second}}}, func([]Reading) {})
	if err == nil {
		t.Fatal("script through unknown room accepted")
	}
}

func TestNetworkProbe(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk)
	if _, err := net.AddHost("a", "s", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("b", "s", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	p := NewNetworkProbe(net, [][2]string{{"a", "b"}})
	rs, err := p.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Kind != KindNetwork || rs[0].RTT <= 0 {
		t.Fatalf("probe readings = %+v", rs)
	}
	bad := NewNetworkProbe(net, [][2]string{{"a", "ghost"}})
	if _, err := bad.Sample(); err == nil {
		t.Fatal("probe to unknown host succeeded")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDistance: "distance", KindBadge: "badge", KindNetwork: "network", Kind(0): "invalid",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
