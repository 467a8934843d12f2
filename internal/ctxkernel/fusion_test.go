package ctxkernel

import (
	"context"
	"testing"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/sensor"
	"mdagent/internal/vclock"
)

func fusionRig(t *testing.T) (*sensor.Field, *Kernel, *Fusion, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	f := sensor.NewField(clk, sensor.WithFieldSeed(9), sensor.WithNoise(0.1))
	f.AddRoom("office821", sensor.Point{X: 0, Y: 0})
	f.AddRoom("office822", sensor.Point{X: 9, Y: 0})
	if err := f.AddBadge("b1", "alice", "office821"); err != nil {
		t.Fatal(err)
	}
	k := NewKernel()
	fu := NewFusion(f, k)
	return f, k, fu, clk
}

// count returns a counter of the events published on topic from now on.
func count(k *Kernel, topic string) *int {
	n := new(int)
	k.Subscribe(topic, func(Event) { *n++ })
	return n
}

func TestFusionInitialLocationPublishesEntered(t *testing.T) {
	f, k, fu, _ := fusionRig(t)
	var entered, left int
	k.Subscribe(TopicUserEntered, func(Event) { entered++ })
	k.Subscribe(TopicUserLeft, func(Event) { left++ })
	fu.Consume(f.Sample())
	if entered != 1 || left != 0 {
		t.Fatalf("entered=%d left=%d, want 1/0 on first sighting", entered, left)
	}
	room, ok := fu.Location("alice")
	if !ok || room != "office821" {
		t.Fatalf("Location = %q, %v", room, ok)
	}
}

func TestFusionDebouncedMove(t *testing.T) {
	f, k, fu, _ := fusionRig(t)
	var lefts, enters []string
	locations := count(k, TopicUserLocation)
	k.Subscribe(TopicUserLeft, func(e Event) { lefts = append(lefts, e.Attr(AttrRoom)) })
	k.Subscribe(TopicUserEntered, func(e Event) { enters = append(enters, e.Attr(AttrRoom)) })

	fu.Consume(f.Sample()) // establish office821
	if err := f.MoveBadge("b1", "office822"); err != nil {
		t.Fatal(err)
	}
	fu.Consume(f.Sample()) // 1st sighting in 822: pending, not yet confirmed
	if len(lefts) != 0 {
		t.Fatalf("move published after a single sample: %v", lefts)
	}
	fu.Consume(f.Sample()) // 2nd consecutive sighting: confirmed
	if len(lefts) != 1 || lefts[0] != "office821" {
		t.Fatalf("left events = %v", lefts)
	}
	if len(enters) != 2 || enters[1] != "office822" {
		t.Fatalf("entered events = %v", enters)
	}
	if room, _ := fu.Location("alice"); room != "office822" {
		t.Fatalf("Location = %q", room)
	}
	// user.entered carries the origin for the predictor.
	if *locations != 2 {
		t.Fatalf("location events = %d", *locations)
	}
}

func TestFusionStableLocationQuiet(t *testing.T) {
	f, k, fu, _ := fusionRig(t)
	fu.Consume(f.Sample())
	locations := count(k, TopicUserLocation)
	for i := 0; i < 5; i++ {
		fu.Consume(f.Sample())
	}
	if *locations != 0 {
		t.Fatalf("stable user produced %d extra location events", *locations)
	}
}

func TestFusionFlickerSuppressed(t *testing.T) {
	// A single-sample flicker to another room (noise) must not move the
	// user: pending resets when the home room wins again.
	f, k, fu, _ := fusionRig(t)
	lefts := count(k, TopicUserLeft)
	fu.Consume(f.Sample()) // at office821
	if err := f.MoveBadge("b1", "office822"); err != nil {
		t.Fatal(err)
	}
	fu.Consume(f.Sample()) // one flicker sample
	if err := f.MoveBadge("b1", "office821"); err != nil {
		t.Fatal(err)
	}
	fu.Consume(f.Sample()) // back home
	if err := f.MoveBadge("b1", "office822"); err != nil {
		t.Fatal(err)
	}
	fu.Consume(f.Sample()) // single again — still pending
	if *lefts != 0 {
		t.Fatalf("flicker published %d user.left events", *lefts)
	}
	if room, _ := fu.Location("alice"); room != "office821" {
		t.Fatalf("Location = %q, want office821 retained", room)
	}
}

func TestFusionPublishesNetworkRTT(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk)
	if _, err := net.AddHost("a", "s", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("b", "s", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	probe := sensor.NewNetworkProbe(net, [][2]string{{"a", "b"}})
	readings, err := probe.Sample()
	if err != nil {
		t.Fatal(err)
	}

	f := sensor.NewField(clk)
	k := NewKernel()
	fu := NewFusion(f, k)
	var rtts []string
	k.Subscribe(TopicNetworkRTT, func(e Event) { rtts = append(rtts, e.Attr(AttrRTTMs)) })
	fu.Consume(readings)
	if len(rtts) != 1 || rtts[0] == "" {
		t.Fatalf("rtt events = %v", rtts)
	}
}

func TestFusionEndToEndWalk(t *testing.T) {
	// Full pipeline: scripted walk -> raw readings -> fusion -> classifier
	// and predictor, as the middleware wires it.
	f, k, fu, _ := fusionRig(t)
	c := NewClassifier()
	c.AttachTo(k)
	p := NewPredictor()
	p.AttachTo(k)

	w := sensor.NewWalker(f, 250*time.Millisecond)
	script := sensor.Script{Badge: "b1", Steps: []sensor.Step{
		{Room: "office821", Dwell: time.Second},
		{Room: "office822", Dwell: time.Second},
		{Room: "office821", Dwell: time.Second},
		{Room: "office822", Dwell: time.Second},
	}}
	if err := w.Run(context.Background(), script, fu.Consume); err != nil {
		t.Fatal(err)
	}
	latest, ok := c.Latest(TopicUserLocation, "alice")
	if !ok || latest.Attr(AttrRoom) != "office822" {
		t.Fatalf("classifier latest = %+v, %v", latest, ok)
	}
	room, prob, ok := p.Predict("alice", "office821")
	if !ok || room != "office822" || prob != 1 {
		t.Fatalf("predictor = %q %v %v", room, prob, ok)
	}
}
