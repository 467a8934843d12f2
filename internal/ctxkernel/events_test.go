package ctxkernel

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// catalogSamples builds one representative typed event per exported
// topic, with every field non-zero so a dropped attribute fails the
// round trip.
func catalogSamples() map[Topic]TypedEvent {
	at := time.Unix(1234, 5678)
	return map[Topic]TypedEvent{
		EvUserEntered:  UserEnteredEvent{User: "alice", Badge: "b1", Room: "r2", FromRoom: "r1", At: at},
		EvUserLeft:     UserLeftEvent{User: "alice", Badge: "b1", Room: "r1", At: at},
		EvUserLocation: UserLocationEvent{User: "alice", Badge: "b1", Room: "r2", At: at},
		EvNetworkRTT:   NetworkRTTEvent{From: "hostA", To: "hostB", RTTMs: 42, At: at},
		EvAppStarted:   AppStartedEvent{App: "player", Host: "hostA", At: at},
		EvAppStopped:   AppStoppedEvent{App: "player", Host: "hostA", At: at},
		EvAppMigrated: AppMigratedEvent{
			App: "player", Dest: "hostB", Mode: "follow-me", Reason: "rule fired",
			SuspendMs: 3, MigrateMs: 1200, ResumeMs: 7, Bytes: 2_000_000, At: at,
		},
		EvAppMigrateFailed: AppMigrateFailedEvent{App: "player", Dest: "hostB", Reason: "ordered", Error: "boom", At: at},
		EvClusterMember:    MemberEvent{Host: "hostA", Space: "lab", State: "suspect", Incarnation: 4, At: at},
		EvClusterHostDead:  HostDeadEvent{Host: "hostA", Reporter: "hostB", At: at},
		EvClusterRehomed: RehomedEvent{
			App: "player", From: "hostA", To: "hostB", Space: "west", Restored: true, At: at,
		},
		EvClusterRehomeFailed: RehomeFailedEvent{Host: "hostA", Error: "no center", At: at},
		EvClusterSuperseded:   SupersededEvent{App: "player", Host: "hostA", RunningOn: "hostB", At: at},
		EvStateReplicated: StateReplicatedEvent{
			App: "player", Host: "hostA", FrameKind: "delta", Seq: 17, Bytes: 4096, Chain: 3, At: at,
		},
		EvStateRestored: StateRestoredEvent{App: "player", To: "hostB", Seq: 17, At: at},
		EvClusterDurable: FederationWriteEvent{
			Space: "west", Key: "snap/player", Concern: "quorum",
			Acked: 2, Required: 2, Durable: true, At: at,
		},
		EvClusterDegraded: FederationWriteEvent{
			Space: "west", Key: "snap/player", Concern: "quorum",
			Acked: 1, Required: 2, Durable: false, Degraded: true, At: at,
		},
	}
}

// TestTypedEventRoundTrip encodes every exported topic's typed form to
// its bus event and decodes it back — the Watch stream's wire contract.
func TestTypedEventRoundTrip(t *testing.T) {
	samples := catalogSamples()
	for topic := EvUserEntered; topic <= EvClusterDegraded; topic++ {
		sample, ok := samples[topic]
		if !ok {
			t.Fatalf("no sample for exported topic %v (%q) — extend catalogSamples", topic, topic.String())
		}
		if sample.Kind() != topic {
			t.Fatalf("sample for %q reports kind %v", topic.String(), sample.Kind())
		}
		bus := sample.Bus()
		if bus.Topic != topic.String() {
			t.Fatalf("%v Bus topic = %q, want %q", topic, bus.Topic, topic.String())
		}
		back := FromBus(bus)
		if !reflect.DeepEqual(back, sample) {
			t.Fatalf("round trip for %q:\n got %#v\nwant %#v", topic.String(), back, sample)
		}
	}
}

func TestTopicStringParseRoundTrip(t *testing.T) {
	for topic := EvUserEntered; topic <= EvClusterDegraded; topic++ {
		s := topic.String()
		if s == "" {
			t.Fatalf("topic %d has no bus string", topic)
		}
		back, ok := ParseTopic(s)
		if !ok || back != topic {
			t.Fatalf("ParseTopic(%q) = %v, %v", s, back, ok)
		}
	}
	if _, ok := ParseTopic("no.such.topic"); ok {
		t.Fatal("ParseTopic accepted an unknown topic")
	}
	if EvUnknown.String() != "" {
		t.Fatalf("EvUnknown.String() = %q", EvUnknown.String())
	}
}

func TestFromBusUnknownTopicIsGeneric(t *testing.T) {
	ev := Event{Topic: "custom.thing", Attrs: map[string]string{"k": "v"}, At: time.Unix(9, 0)}
	typed := FromBus(ev)
	gen, ok := typed.(GenericEvent)
	if !ok {
		t.Fatalf("FromBus unknown topic = %T, want GenericEvent", typed)
	}
	if !reflect.DeepEqual(gen.Bus(), ev) {
		t.Fatalf("GenericEvent.Bus() = %#v", gen.Bus())
	}
	if gen.Kind() != EvUnknown {
		t.Fatalf("GenericEvent.Kind() = %v", gen.Kind())
	}
}

func TestFromBusToleratesMissingAttrs(t *testing.T) {
	// Malformed or attr-less events decode to zero values, never panic.
	typed := FromBus(Event{Topic: TopicStateReplicated})
	sr, ok := typed.(StateReplicatedEvent)
	if !ok || sr.Seq != 0 || sr.App != "" {
		t.Fatalf("decoded %#v", typed)
	}
	typed = FromBus(Event{Topic: TopicNetworkRTT, Attrs: map[string]string{AttrRTTMs: "garbage"}})
	if rtt := typed.(NetworkRTTEvent); rtt.RTTMs != 0 {
		t.Fatalf("garbage rtt decoded to %d", rtt.RTTMs)
	}
}

func TestPublishTypedSetsSource(t *testing.T) {
	k := NewKernel()
	var got Event
	k.Subscribe(TopicAppStarted, func(ev Event) { got = ev })
	k.PublishTyped("core", AppStartedEvent{App: "a", Host: "h", At: time.Unix(1, 0)})
	if got.Source != "core" || got.Attr("app") != "a" {
		t.Fatalf("published %#v", got)
	}
}

// TestPatternMatchingEdgeCases pins the kernel's pattern semantics:
// exact topics, "prefix.*" (which must not match the bare prefix, and
// must match nested segments), and "*".
func TestPatternMatchingEdgeCases(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"*", "anything.at.all", true},
		{"*", "", true},
		{"user.entered", "user.entered", true},
		{"user.entered", "user.entered.x", false},
		{"user.*", "user.entered", true},
		{"user.*", "user", false},                       // bare prefix is not in the subtree
		{"user.*", "userx.entered", false},              // prefix must end at a dot
		{"cluster.*", "cluster.state.replicated", true}, // nested segments match
		{"cluster.state.*", "cluster.state.replicated", true},
		{"cluster.state.*", "cluster.rehomed", false},
		{"", "user.entered", false},
	}
	k := NewKernel()
	for _, c := range cases {
		fired := false
		id := k.Subscribe(c.pattern, func(Event) { fired = true })
		k.Publish(Event{Topic: c.topic})
		k.Unsubscribe(id)
		if fired != c.want {
			t.Errorf("pattern %q topic %q: fired=%v want %v", c.pattern, c.topic, fired, c.want)
		}
	}
}

// TestKernelConcurrentChurn hammers Subscribe/Unsubscribe/Publish from
// many goroutines under -race: the kernel must neither race nor deliver
// to an unsubscribed handler after Unsubscribe returns... delivery MAY
// overlap an in-flight Publish that snapshotted the handler list, so the
// test only asserts absence of races and that counts keep moving.
func TestKernelConcurrentChurn(t *testing.T) {
	k := NewKernel()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners: subscribe, receive, unsubscribe in a loop.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				var mu sync.Mutex
				seen := 0
				pattern := fmt.Sprintf("churn.%d.*", n)
				id := k.Subscribe(pattern, func(Event) {
					mu.Lock()
					seen++
					mu.Unlock()
				})
				k.Publish(Event{Topic: fmt.Sprintf("churn.%d.tick", n)})
				k.Unsubscribe(id)
				mu.Lock()
				if seen == 0 {
					mu.Unlock()
					t.Errorf("goroutine %d iteration %d: own publish not delivered", n, j)
					return
				}
				mu.Unlock()
			}
		}(i)
	}
	// Publishers on a shared topic with a wildcard subscriber.
	var total sync.WaitGroup
	var shared atomic.Int64
	k.Subscribe("*", func(ev Event) {
		if ev.Topic == "shared.tick" {
			shared.Add(1)
		}
	})
	for i := 0; i < 4; i++ {
		total.Add(1)
		go func() {
			defer total.Done()
			for j := 0; j < 200; j++ {
				k.Publish(Event{Topic: "shared.tick"})
			}
		}()
	}
	total.Wait()
	close(stop)
	wg.Wait()
	if got := shared.Load(); got != 800 {
		t.Fatalf("shared.tick deliveries = %d, want 800", got)
	}
}
