package ctxkernel

import (
	"sync"
)

// Condition decides whether an event should fire a watch.
type Condition func(Event) bool

// Monitor evaluates predefined conditions over the event stream and runs
// actions when they hold — the paper's context monitor: "A context monitor
// will observe this process. If some predefined conditions occur, the
// autonomous agents will be triggered" (§4.1).
type Monitor struct {
	kernel *Kernel

	mu      sync.Mutex
	watches map[string]int // watch name -> subscription id
}

// NewMonitor creates a monitor over kernel.
func NewMonitor(kernel *Kernel) *Monitor {
	return &Monitor{
		kernel:  kernel,
		watches: make(map[string]int),
	}
}

// Watch installs a named watch: when an event matching the topic pattern
// satisfies cond (nil means always), action runs. Installing a watch with
// an existing name replaces it.
func (m *Monitor) Watch(name, topicPattern string, cond Condition, action func(Event)) {
	m.mu.Lock()
	if old, ok := m.watches[name]; ok {
		m.kernel.Unsubscribe(old)
	}
	m.mu.Unlock()

	id := m.kernel.Subscribe(topicPattern, func(ev Event) {
		if cond != nil && !cond(ev) {
			return
		}
		action(ev)
	})

	m.mu.Lock()
	m.watches[name] = id
	m.mu.Unlock()
}
