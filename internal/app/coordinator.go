package app

import (
	"sort"
	"sync"
)

// StateChange is one observable application state mutation, flowing from
// the logic controller through the Coordinator to registered
// presentations and any synchronization links.
type StateChange struct {
	Key    string
	Value  string
	Seq    uint64 // coordinator-local total order
	Origin string // application instance that originated the change
}

// Observer receives state-change notifications — the Observer pattern the
// paper builds the application model on (§4.2: "different presentations
// register themselves to the coordinator. When the states change, these
// presentations can get notified automatically").
type Observer interface {
	Notify(change StateChange)
}

// Coordinator is the base-level hub: it keeps canonical application
// state, notifies registered presentations on change, and forwards
// changes down synchronization links to cloned instances (clone-dispatch
// mobility, §4.2.2). It is safe for concurrent use.
type Coordinator struct {
	origin string // owning application instance id

	// onMutate, when set (by the owning Application), is called outside
	// c.mu after every accepted state mutation — the dirty-counter feed
	// for the state pipeline.
	onMutate func()

	mu        sync.Mutex
	state     map[string]string
	seq       uint64
	observers map[string]Observer
	links     map[string]func(StateChange) // link name -> forwarder
	frozen    bool                         // suspended: changes rejected
	applied   map[string]uint64            // origin -> highest remote seq applied
}

// NewCoordinator creates a coordinator for the named application instance.
func NewCoordinator(origin string) *Coordinator {
	return &Coordinator{
		origin:    origin,
		state:     make(map[string]string),
		observers: make(map[string]Observer),
		links:     make(map[string]func(StateChange)),
		applied:   make(map[string]uint64),
	}
}

// Register adds a named observer (presentation). Re-registering a name
// replaces the observer.
func (c *Coordinator) Register(name string, o Observer) {
	c.mu.Lock()
	c.observers[name] = o
	c.mu.Unlock()
}

// AddLink attaches a synchronization link: every accepted change is
// forwarded to fn (which typically ships it to a cloned instance).
func (c *Coordinator) AddLink(name string, fn func(StateChange)) {
	c.mu.Lock()
	c.links[name] = fn
	c.mu.Unlock()
}

// Set applies a local state change, notifying observers and links.
// It reports whether the change was accepted (false while frozen).
func (c *Coordinator) Set(key, value string) bool {
	c.mu.Lock()
	if c.frozen {
		c.mu.Unlock()
		return false
	}
	c.seq++
	change := StateChange{Key: key, Value: value, Seq: c.seq, Origin: c.origin}
	c.state[key] = value
	obs, links := c.snapshotTargetsLocked()
	c.mu.Unlock()

	if c.onMutate != nil {
		c.onMutate()
	}
	for _, o := range obs {
		o.Notify(change)
	}
	for _, l := range links {
		l(change)
	}
	return true
}

// ApplyRemote applies a change received over a synchronization link.
// Each coordinator remembers the highest sequence number applied per
// originating instance and drops duplicates, so changes propagate exactly
// once through arbitrary link topologies (pairs, chains, or cycles of
// master and clones) without echo storms.
func (c *Coordinator) ApplyRemote(change StateChange) {
	c.mu.Lock()
	if c.frozen || change.Origin == c.origin || c.applied[change.Origin] >= change.Seq {
		c.mu.Unlock()
		return
	}
	c.applied[change.Origin] = change.Seq
	c.state[change.Key] = change.Value
	obs, links := c.snapshotTargetsLocked()
	c.mu.Unlock()

	if c.onMutate != nil {
		c.onMutate()
	}
	for _, o := range obs {
		o.Notify(change)
	}
	for _, l := range links {
		l(change)
	}
}

func (c *Coordinator) snapshotTargetsLocked() ([]Observer, []func(StateChange)) {
	obs := make([]Observer, 0, len(c.observers))
	names := make([]string, 0, len(c.observers))
	for n := range c.observers {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic notification order
	for _, n := range names {
		obs = append(obs, c.observers[n])
	}
	links := make([]func(StateChange), 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	return obs, links
}

// Get reads a state value.
func (c *Coordinator) Get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.state[key]
	return v, ok
}

// State returns a copy of the full state map.
func (c *Coordinator) State() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make(map[string]string, len(c.state))
	for k, v := range c.state {
		cp[k] = v
	}
	return cp
}

// Freeze rejects further changes (used during suspension).
func (c *Coordinator) Freeze() {
	c.mu.Lock()
	c.frozen = true
	c.mu.Unlock()
}

// Thaw re-enables changes.
func (c *Coordinator) Thaw() {
	c.mu.Lock()
	c.frozen = false
	c.mu.Unlock()
}

// Frozen reports whether the coordinator is frozen.
func (c *Coordinator) Frozen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frozen
}

// replaceState swaps in a restored state map (snapshot restore path).
func (c *Coordinator) replaceState(state map[string]string) {
	c.mu.Lock()
	c.state = make(map[string]string, len(state))
	for k, v := range state {
		c.state[k] = v
	}
	c.mu.Unlock()
	if c.onMutate != nil {
		c.onMutate()
	}
}
