package ctxkernel

import (
	"strings"
	"sync"
)

// TemporalClass partitions context facts by how fast they change — the
// paper's classifier "will store the data into different databases
// according to their temporal characteristics" (§4.1), motivated by §3.4:
// "users' location information usually changes frequently ... while users'
// preferences or operational habits are generally more stable".
type TemporalClass int

// Temporal classes.
const (
	// ClassStatic facts rarely change: user preferences, habits.
	ClassStatic TemporalClass = iota + 1
	// ClassStable facts change occasionally: device profiles, installed apps.
	ClassStable
	// ClassDynamic facts change constantly: locations, network conditions.
	ClassDynamic
)

func (c TemporalClass) String() string {
	switch c {
	case ClassStatic:
		return "static"
	case ClassStable:
		return "stable"
	case ClassDynamic:
		return "dynamic"
	default:
		return "invalid"
	}
}

// DefaultTopicClasses maps the well-known topic prefixes to temporal
// classes.
func DefaultTopicClasses() map[string]TemporalClass {
	return map[string]TemporalClass{
		"user.preference": ClassStatic,
		"device.":         ClassStable,
		"app.":            ClassStable,
		"user.":           ClassDynamic,
		"network.":        ClassDynamic,
	}
}

// Classifier routes events into per-class databases and answers queries
// about the latest value of each fact.
type Classifier struct {
	mu      sync.RWMutex
	classes map[string]TemporalClass // topic prefix (or exact) -> class
	dbs     map[TemporalClass]map[string]Event
}

// NewClassifier builds a classifier with the default topic classes.
func NewClassifier() *Classifier {
	return &Classifier{
		classes: DefaultTopicClasses(),
		dbs: map[TemporalClass]map[string]Event{
			ClassStatic:  make(map[string]Event),
			ClassStable:  make(map[string]Event),
			ClassDynamic: make(map[string]Event),
		},
	}
}

// ClassOf resolves the temporal class for a topic: exact match first, then
// the longest registered prefix; unknown topics default to dynamic (safe:
// they are re-fetched rather than assumed stable).
func (c *Classifier) ClassOf(topic string) TemporalClass {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if cl, ok := c.classes[topic]; ok {
		return cl
	}
	best, bestLen := ClassDynamic, -1
	for prefix, cl := range c.classes {
		if strings.HasPrefix(topic, prefix) && len(prefix) > bestLen {
			best, bestLen = cl, len(prefix)
		}
	}
	return best
}

func key(topic, subject string) string { return topic + "|" + subject }

// Store files the event into its class database.
func (c *Classifier) Store(ev Event) TemporalClass {
	class := c.ClassOf(ev.Topic)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dbs[class][key(ev.Topic, ev.Subject())] = ev
	return class
}

// Latest returns the most recent fact for (topic, subject).
func (c *Classifier) Latest(topic, subject string) (Event, bool) {
	class := c.ClassOf(topic)
	c.mu.RLock()
	defer c.mu.RUnlock()
	ev, ok := c.dbs[class][key(topic, subject)]
	return ev, ok
}

// AttachTo subscribes the classifier to every event on the kernel.
func (c *Classifier) AttachTo(k *Kernel) int {
	return k.Subscribe("*", func(ev Event) { c.Store(ev) })
}
