package app

import (
	"fmt"
	"sort"
	"sync"

	"mdagent/internal/owl"
	"mdagent/internal/wsdl"
)

// RunState is the application lifecycle state.
type RunState int

// Application run states.
const (
	Running RunState = iota + 1
	Suspended
)

func (s RunState) String() string {
	switch s {
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	default:
		return "invalid"
	}
}

// UserProfile captures the per-user customization the paper motivates
// with the left-handed user example (§1).
type UserProfile struct {
	User        string
	Preferences map[string]string // e.g. handedness=left, volume=70
}

// Application is one running application instance on a host, assembled
// from components per the paper's Fig. 3 model.
type Application struct {
	name string
	host string
	desc wsdl.Description

	mu         sync.Mutex
	state      RunState
	components map[string]Component
	order      []string // registration order for deterministic wraps
	resources  []owl.Resource
	profile    UserProfile

	// Dirty tracking for the state pipeline: changeSeq counts every
	// observable state mutation (component content, coordinator state,
	// profile); compSeq records the changeSeq at each component's last
	// mutation; untracked lists components that cannot announce changes
	// (no ChangeNotifier) and so must be treated as always dirty.
	changeSeq uint64
	compSeq   map[string]uint64
	untracked map[string]bool

	coordinator *Coordinator
	snapshots   *SnapshotManager
	adaptor     *Adaptor
}

// New creates a running application instance.
func New(name, host string, desc wsdl.Description) *Application {
	a := &Application{
		name:       name,
		host:       host,
		desc:       desc,
		state:      Running,
		components: make(map[string]Component),
		compSeq:    make(map[string]uint64),
		untracked:  make(map[string]bool),
	}
	a.coordinator = NewCoordinator(name + "@" + host)
	a.coordinator.onMutate = func() { a.markDirty("") }
	a.snapshots = NewSnapshotManager(a)
	a.adaptor = NewAdaptor()
	return a
}

// markDirty advances the application's mutation counter; a non-empty
// component name additionally records that component as changed at the
// new counter value.
func (a *Application) markDirty(component string) {
	a.mu.Lock()
	a.changeSeq++
	if component != "" {
		a.compSeq[component] = a.changeSeq
	}
	a.mu.Unlock()
}

// ChangeSeq returns the application's mutation counter: it advances on
// every component content change, coordinator state change, and profile
// replacement. A capture that records the counter can skip all
// serialization work on the next tick when the counter has not moved —
// the state pipeline's idle fast path.
func (a *Application) ChangeSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.changeSeq
}

// ChangedSince lists (in registration order) the components mutated
// after the given ChangeSeq value, plus every untracked component —
// exactly the set a delta capture must serialize.
func (a *Application) ChangedSince(seq uint64) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for _, n := range a.order {
		if a.untracked[n] || a.compSeq[n] > seq {
			out = append(out, n)
		}
	}
	return out
}

// FullyTracked reports whether every component announces its mutations
// (implements ChangeNotifier). Only then is an unmoved ChangeSeq proof
// that the application's serialized state is unchanged.
func (a *Application) FullyTracked() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.untracked) == 0
}

// Name returns the application name.
func (a *Application) Name() string { return a.name }

// Host returns the host the instance runs on.
func (a *Application) Host() string { return a.host }

// SetHost records a new host after migration.
func (a *Application) SetHost(host string) {
	a.mu.Lock()
	a.host = host
	a.coordinator.origin = a.name + "@" + host
	a.mu.Unlock()
}

// Description returns the interface description.
func (a *Application) Description() wsdl.Description { return a.desc }

// Coordinator returns the base-level coordinator.
func (a *Application) Coordinator() *Coordinator { return a.coordinator }

// Snapshots returns the snapshot manager.
func (a *Application) Snapshots() *SnapshotManager { return a.snapshots }

// Adaptor returns the adaptor.
func (a *Application) Adaptor() *Adaptor { return a.adaptor }

// State returns the run state.
func (a *Application) State() RunState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// AddComponent registers a component. Names must be unique. Components
// that implement ChangeNotifier feed the application's dirty counters;
// others are tracked as always-dirty.
func (a *Application) AddComponent(c Component) error {
	name := c.Name()
	a.mu.Lock()
	if _, dup := a.components[name]; dup {
		a.mu.Unlock()
		return fmt.Errorf("app: duplicate component %q", name)
	}
	a.components[name] = c
	a.order = append(a.order, name)
	a.changeSeq++
	a.compSeq[name] = a.changeSeq
	notifier, tracked := c.(ChangeNotifier)
	if !tracked {
		a.untracked[name] = true
	}
	a.mu.Unlock()
	if tracked {
		notifier.OnContentChange(func() { a.markDirty(name) })
	}
	return nil
}

// Component looks up a component by name.
func (a *Application) Component(name string) (Component, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.components[name]
	return c, ok
}

// Components returns the component names in registration order.
func (a *Application) Components() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}

// ComponentsOfKind returns names of components of one kind, sorted.
func (a *Application) ComponentsOfKind(k ComponentKind) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for name, c := range a.components {
		if c.Kind() == k {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// BindResource records a resource binding.
func (a *Application) BindResource(r owl.Resource) {
	a.mu.Lock()
	a.resources = append(a.resources, r)
	a.mu.Unlock()
}

// Resources returns the bound resources.
func (a *Application) Resources() []owl.Resource {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]owl.Resource, len(a.resources))
	copy(out, a.resources)
	return out
}

// SetProfile attaches the user profile.
func (a *Application) SetProfile(p UserProfile) {
	a.mu.Lock()
	a.profile = p
	a.changeSeq++
	a.mu.Unlock()
}

// Profile returns the user profile.
func (a *Application) Profile() UserProfile {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.profile
}

// Suspend freezes the coordinator and marks the app suspended (paper
// Fig. 4: the coordinator suspends the application before the snapshot).
func (a *Application) Suspend() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == Suspended {
		return fmt.Errorf("app: %s already suspended", a.name)
	}
	a.coordinator.Freeze()
	a.state = Suspended
	return nil
}

// Resume thaws the coordinator and marks the app running.
func (a *Application) Resume() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == Running {
		return fmt.Errorf("app: %s already running", a.name)
	}
	a.coordinator.Thaw()
	a.state = Running
	return nil
}

// Wrap is a serialized bundle of selected components plus coordinator
// state — what the mobile agent carries (paper §4.3: the MA "can wrap any
// serializable part and migrate to the destination").
type Wrap struct {
	App        string
	FromHost   string
	Components map[string][]byte // component name -> snapshot
	Kinds      map[string]ComponentKind
	CoordState map[string]string
	Profile    UserProfile
}

// TotalBytes reports the wrap payload size.
func (w Wrap) TotalBytes() int64 {
	var n int64
	for _, b := range w.Components {
		n += int64(len(b))
	}
	for k, v := range w.CoordState {
		n += int64(len(k) + len(v))
	}
	return n
}

// View returns a wrap of only the named components of w, sharing their
// bytes with it (captured bytes are immutable, see Component) and
// carrying the same coordinator state and profile. It is how one capture
// serves as both the rollback point and the transfer bundle.
func (w Wrap) View(names []string) (Wrap, error) {
	v := w
	v.Components = make(map[string][]byte, len(names))
	v.Kinds = make(map[string]ComponentKind, len(names))
	for _, n := range names {
		b, ok := w.Components[n]
		if !ok {
			return Wrap{}, fmt.Errorf("app: no component %q in wrap of %s", n, w.App)
		}
		v.Components[n] = b
		v.Kinds[n] = w.Kinds[n]
	}
	return v, nil
}

// WrapComponents snapshots the named components (all when names is nil)
// into a transferable bundle. The application should be suspended first
// for a consistent cut.
func (a *Application) WrapComponents(names []string) (Wrap, error) {
	a.mu.Lock()
	if names == nil {
		names = make([]string, len(a.order))
		copy(names, a.order)
	}
	comps := make(map[string]Component, len(names))
	for _, n := range names {
		c, ok := a.components[n]
		if !ok {
			a.mu.Unlock()
			return Wrap{}, fmt.Errorf("app: no component %q in %s", n, a.name)
		}
		comps[n] = c
	}
	host := a.host
	profile := a.profile
	a.mu.Unlock()

	w := Wrap{
		App:        a.name,
		FromHost:   host,
		Components: make(map[string][]byte, len(comps)),
		Kinds:      make(map[string]ComponentKind, len(comps)),
		CoordState: a.coordinator.State(),
		Profile:    profile,
	}
	for n, c := range comps {
		snap, err := c.Snapshot()
		if err != nil {
			return Wrap{}, fmt.Errorf("app: wrap %s/%s: %w", a.name, n, err)
		}
		w.Components[n] = snap
		w.Kinds[n] = c.Kind()
	}
	return w, nil
}

// Unwrap restores wrapped component snapshots into this instance:
// existing components are restored in place; missing ones are created as
// blob components of the recorded kind (state components are recreated as
// StateComponent). Coordinator state and profile are replaced.
func (a *Application) Unwrap(w Wrap) error {
	names := make([]string, 0, len(w.Components))
	for n := range w.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap := w.Components[n]
		a.mu.Lock()
		c, ok := a.components[n]
		a.mu.Unlock()
		if !ok {
			switch w.Kinds[n] {
			case KindState:
				c = NewState(n)
			default:
				c = NewBlob(n, w.Kinds[n], nil)
			}
			if err := a.AddComponent(c); err != nil {
				return err
			}
		}
		if err := c.Restore(snap); err != nil {
			return fmt.Errorf("app: unwrap %s/%s: %w", a.name, n, err)
		}
	}
	a.coordinator.replaceState(w.CoordState)
	a.SetProfile(w.Profile)
	return nil
}
