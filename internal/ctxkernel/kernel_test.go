package ctxkernel

import (
	"sync"
	"testing"
	"time"
)

func ev(topic string, attrs map[string]string) Event {
	return Event{Topic: topic, Attrs: attrs, At: time.Unix(0, 0), Source: "test"}
}

func TestPublishMulticastsToMatchingSubscribers(t *testing.T) {
	k := NewKernel()
	var exact, prefix, all, other int
	k.Subscribe(TopicUserEntered, func(Event) { exact++ })
	k.Subscribe("user.*", func(Event) { prefix++ })
	k.Subscribe("*", func(Event) { all++ })
	k.Subscribe("network.*", func(Event) { other++ })

	k.Publish(ev(TopicUserEntered, map[string]string{AttrUser: "alice"}))
	if exact != 1 || prefix != 1 || all != 1 || other != 0 {
		t.Fatalf("deliveries = exact:%d prefix:%d all:%d other:%d", exact, prefix, all, other)
	}
}

func TestPrefixDoesNotMatchBareName(t *testing.T) {
	k := NewKernel()
	hits := 0
	k.Subscribe("user.*", func(Event) { hits++ })
	k.Publish(ev("user", nil)) // no dot segment; must not match
	k.Publish(ev("userx.entered", nil))
	if hits != 0 {
		t.Fatalf("prefix pattern over-matched: %d", hits)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	k := NewKernel()
	hits := 0
	id := k.Subscribe("*", func(Event) { hits++ })
	k.Publish(ev("a", nil))
	k.Unsubscribe(id)
	k.Publish(ev("a", nil))
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if k.SubscriberCount() != 0 {
		t.Fatalf("SubscriberCount = %d", k.SubscriberCount())
	}
	k.Unsubscribe(999) // unknown id is a no-op
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	k := NewKernel()
	var mu sync.Mutex
	seen := 0
	k.Subscribe("*", func(Event) {
		mu.Lock()
		seen++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				k.Publish(ev("t", nil))
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if seen != 800 {
		t.Fatalf("seen = %d, want 800", seen)
	}
}

func TestEventSubject(t *testing.T) {
	tests := []struct {
		e    Event
		want string
	}{
		{ev(TopicUserLocation, map[string]string{AttrUser: "alice"}), "alice"},
		{ev(TopicNetworkRTT, map[string]string{AttrFrom: "a", AttrTo: "b"}), "a>b"},
		{ev("custom.topic", map[string]string{AttrKey: "k1"}), "k1"},
	}
	for _, tc := range tests {
		if got := tc.e.Subject(); got != tc.want {
			t.Fatalf("Subject(%s) = %q, want %q", tc.e.Topic, got, tc.want)
		}
	}
}

func TestClassifierClassOf(t *testing.T) {
	c := NewClassifier()
	tests := []struct {
		topic string
		want  TemporalClass
	}{
		{"user.preference", ClassStatic},
		{TopicUserLocation, ClassDynamic}, // "user." prefix
		{TopicNetworkRTT, ClassDynamic},
		{"device.profile", ClassStable},
		{"app.state", ClassStable},
		{"totally.unknown", ClassDynamic}, // default
	}
	for _, tc := range tests {
		if got := c.ClassOf(tc.topic); got != tc.want {
			t.Fatalf("ClassOf(%s) = %v, want %v", tc.topic, got, tc.want)
		}
	}
}

func TestClassifierExactBeatsPrefix(t *testing.T) {
	// user.preference is static even though user.* is dynamic: the exact
	// entry must win over the shorter prefix.
	c := NewClassifier()
	if got := c.ClassOf("user.preference"); got != ClassStatic {
		t.Fatalf("ClassOf(user.preference) = %v, want static", got)
	}
	if got := c.ClassOf("user.gait"); got != ClassDynamic {
		t.Fatalf("ClassOf(user.gait) = %v, want dynamic", got)
	}
}

func TestClassifierStoreAndLatest(t *testing.T) {
	c := NewClassifier()
	e1 := ev(TopicUserLocation, map[string]string{AttrUser: "alice", AttrRoom: "office821"})
	e2 := ev(TopicUserLocation, map[string]string{AttrUser: "alice", AttrRoom: "office822"})
	if class := c.Store(e1); class != ClassDynamic {
		t.Fatalf("Store class = %v", class)
	}
	c.Store(e2)
	got, ok := c.Latest(TopicUserLocation, "alice")
	if !ok || got.Attr(AttrRoom) != "office822" {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}
	if _, ok := c.Latest(TopicUserLocation, "bob"); ok {
		t.Fatal("Latest for unknown subject reported ok")
	}
	if n := len(c.dbs[ClassDynamic]); n != 1 {
		t.Fatalf("dynamic size = %d, want 1 (same subject)", n)
	}
}

func TestClassifierAttachTo(t *testing.T) {
	k := NewKernel()
	c := NewClassifier()
	c.AttachTo(k)
	k.Publish(ev(TopicUserLocation, map[string]string{AttrUser: "alice", AttrRoom: "r1"}))
	if _, ok := c.Latest(TopicUserLocation, "alice"); !ok {
		t.Fatal("attached classifier did not store published event")
	}
}

func TestTemporalClassString(t *testing.T) {
	for c, want := range map[TemporalClass]string{
		ClassStatic: "static", ClassStable: "stable", ClassDynamic: "dynamic", TemporalClass(0): "invalid",
	} {
		if got := c.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", c, got, want)
		}
	}
}

func TestPredictorLearnsAndPredicts(t *testing.T) {
	p := NewPredictor()
	for i := 0; i < 3; i++ {
		p.Observe("alice", "office821", "corridor")
	}
	p.Observe("alice", "office821", "office822")
	room, prob, ok := p.Predict("alice", "office821")
	if !ok || room != "corridor" {
		t.Fatalf("Predict = %q, %v, %v", room, prob, ok)
	}
	if prob < 0.74 || prob > 0.76 {
		t.Fatalf("prob = %v, want 0.75", prob)
	}
	if _, _, ok := p.Predict("alice", "atlantis"); ok {
		t.Fatal("prediction from unknown room reported ok")
	}
	if _, _, ok := p.Predict("bob", "office821"); ok {
		t.Fatal("prediction for unknown user reported ok")
	}
}

func TestPredictorPredictNextAndSelfMovesIgnored(t *testing.T) {
	p := NewPredictor()
	p.Observe("alice", "a", "a") // ignored
	if _, _, ok := p.PredictNext("alice"); ok {
		t.Fatal("self-move trained the predictor")
	}
	p.Observe("alice", "a", "b")
	p.Observe("alice", "b", "c")
	room, _, ok := p.PredictNext("alice") // last room is c; no transitions from c
	if ok {
		t.Fatalf("PredictNext from terminal room = %q, want no prediction", room)
	}
	p.Observe("alice", "c", "a")
	p.Observe("alice", "a", "b") // back at b; b->c known
	room, _, ok = p.PredictNext("alice")
	if !ok || room != "c" {
		t.Fatalf("PredictNext = %q, %v", room, ok)
	}
}

func TestPredictorAttachTo(t *testing.T) {
	k := NewKernel()
	p := NewPredictor()
	p.AttachTo(k)
	k.Publish(ev(TopicUserEntered, map[string]string{AttrUser: "alice", AttrFrom: "a", AttrRoom: "b"}))
	k.Publish(ev(TopicUserEntered, map[string]string{AttrUser: "alice", AttrFrom: "a", AttrRoom: "b"}))
	room, _, ok := p.Predict("alice", "a")
	if !ok || room != "b" {
		t.Fatalf("attached predictor = %q, %v", room, ok)
	}
}

func TestPredictorDeterministicTieBreak(t *testing.T) {
	p := NewPredictor()
	p.Observe("u", "x", "zeta")
	p.Observe("u", "x", "alpha")
	room, prob, ok := p.Predict("u", "x")
	if !ok || room != "alpha" || prob != 0.5 {
		t.Fatalf("tie-break = %q %v %v, want alpha 0.5", room, prob, ok)
	}
}
