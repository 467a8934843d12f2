// Package ctxkernel implements MDAgent's context layer (paper §4.1): a
// publish/subscribe context kernel ("Context kernel employs a
// publish/subscribe design pattern. When the subscribed events occur, the
// information will be multicast to the registered listeners"), a
// classifier that stores context facts into databases by temporal
// characteristics, fusion of raw sensor readings into semantic
// facts ("to map these data to useful information such as location, user
// identity ... requires context fusion mechanisms"), and a Markov
// next-location predictor ("some context reasoning and prediction
// functionalities should also be provided"). The paper's context monitor,
// which triggers autonomous agents when predefined conditions occur, is
// each autonomous agent's own kernel subscription (internal/agents).
package ctxkernel

import (
	"strings"
	"sync"
	"time"

	"mdagent/internal/obs"
)

// Well-known topics published by the fusion stage and consumed by
// autonomous agents.
const (
	TopicUserEntered  = "user.entered"  // user appeared in a room
	TopicUserLeft     = "user.left"     // user left a room
	TopicUserLocation = "user.location" // current (user, room) fact
	TopicNetworkRTT   = "network.rtt"   // observed response time between hosts
)

// Well-known topics published by the cluster layer (internal/core's
// distribution wiring); defined here so the agent layer can follow
// failover without importing core.
const (
	// TopicClusterHostDead fires when membership declares a host dead
	// (with quorum) and failover begins.
	TopicClusterHostDead = "cluster.host-dead"
	// TopicClusterRehomed fires for each application relaunched on a
	// survivor (attrs: app, from, to, space, restored).
	TopicClusterRehomed = "cluster.rehomed"
	// TopicClusterRehomeFailed fires when failover could not re-home an
	// app.
	TopicClusterRehomeFailed = "cluster.rehome-failed"
	// TopicClusterSuperseded fires when a host that returned from a false
	// death conviction stops its local copy of an application that
	// failover meanwhile re-homed elsewhere.
	TopicClusterSuperseded = "cluster.superseded"
	// TopicStateReplicated fires each time a host's replicator publishes
	// an application snapshot to its registry center.
	TopicStateReplicated = "cluster.state.replicated"
	// TopicStateRestored fires when failover restores a re-homed app from
	// a replicated snapshot instead of a skeleton.
	TopicStateRestored = "cluster.state.restored"
	// TopicClusterDurable fires when a synchronous-concern federation
	// write collected the peer acks its write concern requires.
	TopicClusterDurable = "cluster.durable"
	// TopicClusterDegraded fires when a synchronous-concern federation
	// write fell short: too few peers reachable (degraded mode) or too
	// few acks before the window closed. The write landed locally and
	// anti-entropy keeps retrying delivery.
	TopicClusterDegraded = "cluster.degraded"
)

// Well-known attribute keys.
const (
	AttrUser  = "user"
	AttrBadge = "badge"
	AttrRoom  = "room"
	AttrFrom  = "from"
	AttrTo    = "to"
	AttrRTTMs = "rtt_ms"
	AttrKey   = "key"
)

// Event is one context fact flowing through the kernel.
type Event struct {
	Topic  string
	Attrs  map[string]string
	At     time.Time
	Source string
}

// Attr returns an attribute value ("" when absent).
func (e Event) Attr(key string) string { return e.Attrs[key] }

// Subject identifies what the event is about, used as the storage key by
// the classifier: the user for user.* topics, from/to pair for network
// topics, otherwise the "key" attribute.
func (e Event) Subject() string {
	switch {
	case strings.HasPrefix(e.Topic, "user."):
		return e.Attr(AttrUser)
	case strings.HasPrefix(e.Topic, "network."):
		return e.Attr(AttrFrom) + ">" + e.Attr(AttrTo)
	default:
		return e.Attr(AttrKey)
	}
}

// Handler consumes events. Handlers run synchronously on the publisher's
// goroutine and must be quick; spawn work elsewhere for slow reactions.
type Handler func(Event)

type subscription struct {
	id      int
	pattern string
	handler Handler
}

// Kernel is the pub/sub hub.
type Kernel struct {
	mu     sync.RWMutex
	subs   []subscription
	nextID int
}

// NewKernel returns an empty kernel.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Subscribe registers a handler for a topic pattern: either an exact topic
// or a prefix pattern ending in ".*" (e.g. "user.*"), or "*" for all.
// It returns a subscription id for Unsubscribe.
func (k *Kernel) Subscribe(pattern string, h Handler) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextID++
	k.subs = append(k.subs, subscription{id: k.nextID, pattern: pattern, handler: h})
	return k.nextID
}

// Unsubscribe removes a subscription by id.
func (k *Kernel) Unsubscribe(id int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, s := range k.subs {
		if s.id == id {
			k.subs = append(k.subs[:i], k.subs[i+1:]...)
			return
		}
	}
}

// MatchTopic reports whether a subscription pattern (exact topic,
// "prefix.*", or "*") matches a topic — the kernel's own matching rule,
// exported so the control plane's replay ring can filter buffered
// events with exactly the semantics a live subscription would have.
func MatchTopic(pattern, topic string) bool { return matches(pattern, topic) }

func matches(pattern, topic string) bool {
	if pattern == "*" || pattern == topic {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, ".*"); ok {
		return strings.HasPrefix(topic, prefix+".")
	}
	return false
}

// mPublishes counts kernel publishes process-wide (kernels have no
// individual identity; in-process deployments share the series).
var mPublishes = obs.Default.Counter("mdagent_kernel_publish_total")

// Publish multicasts the event to every matching subscriber, in
// subscription order.
func (k *Kernel) Publish(ev Event) {
	mPublishes.Inc()
	k.mu.RLock()
	handlers := make([]Handler, 0, len(k.subs))
	for _, s := range k.subs {
		if matches(s.pattern, ev.Topic) {
			handlers = append(handlers, s.handler)
		}
	}
	k.mu.RUnlock()
	for _, h := range handlers {
		h(ev)
	}
}

// SubscriberCount reports the number of live subscriptions (diagnostics).
func (k *Kernel) SubscriberCount() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.subs)
}
