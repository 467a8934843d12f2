package app

import (
	"fmt"
	"sync"
	"time"
)

// SnapshotManager is the base-level persistence controller (paper §4.2.1:
// "The snapshot management is responsible for persistence process control
// of running applications"). It captures full-application snapshots —
// every component plus coordinator state — and keeps a bounded history so
// a crashed or mis-migrated application can roll back.
type SnapshotManager struct {
	app *Application

	mu         sync.Mutex
	history    []TaggedSnapshot
	onRecord   map[int]func(TaggedSnapshot)
	nextHookID int
}

// TaggedSnapshot is one recorded snapshot with provenance.
type TaggedSnapshot struct {
	Tag  string
	At   time.Time
	Wrap Wrap
	// ChangeSeq is the application's mutation counter read just before
	// the wrap was captured — a conservative lower bound on what the
	// wrap contains, letting the state replicator keep its dirty fast
	// path valid across explicitly recorded snapshots.
	ChangeSeq uint64
}

// historyCap bounds a SnapshotManager's history; the oldest snapshot is
// evicted first.
const historyCap = 8

// NewSnapshotManager creates a manager for app.
func NewSnapshotManager(app *Application) *SnapshotManager {
	return &SnapshotManager{app: app}
}

// OnRecord registers an observer fired (outside the manager's lock, on
// the recording goroutine) after every successful Record — the state
// pipeline's replicator hooks here so explicitly captured snapshots
// replicate immediately instead of waiting out the capture interval.
// The returned id detaches the observer via RemoveOnRecord.
func (m *SnapshotManager) OnRecord(f func(TaggedSnapshot)) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.onRecord == nil {
		m.onRecord = make(map[int]func(TaggedSnapshot))
	}
	m.nextHookID++
	m.onRecord[m.nextHookID] = f
	return m.nextHookID
}

// RemoveOnRecord detaches an OnRecord observer.
func (m *SnapshotManager) RemoveOnRecord(id int) {
	m.mu.Lock()
	delete(m.onRecord, id)
	m.mu.Unlock()
}

// Record captures a full snapshot of the application under tag. The
// timestamp is supplied by the caller so virtual-clock runs stay
// deterministic.
func (m *SnapshotManager) Record(tag string, at time.Time) (TaggedSnapshot, error) {
	// Read the counter before the wrap: a mutation landing mid-capture
	// then looks newer than the snapshot and triggers a re-capture,
	// never a wrongly skipped one.
	seq := m.app.ChangeSeq()
	w, err := m.app.WrapComponents(nil)
	if err != nil {
		return TaggedSnapshot{}, err
	}
	ts := TaggedSnapshot{Tag: tag, At: at, Wrap: w, ChangeSeq: seq}
	m.mu.Lock()
	m.history = append(m.history, ts)
	if len(m.history) > historyCap {
		m.history = m.history[len(m.history)-historyCap:]
	}
	observers := make([]func(TaggedSnapshot), 0, len(m.onRecord))
	for _, f := range m.onRecord {
		observers = append(observers, f)
	}
	m.mu.Unlock()
	for _, f := range observers {
		f(ts)
	}
	return ts, nil
}

// Find returns the most recent snapshot with the given tag.
func (m *SnapshotManager) Find(tag string) (TaggedSnapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.history) - 1; i >= 0; i-- {
		if m.history[i].Tag == tag {
			return m.history[i], true
		}
	}
	return TaggedSnapshot{}, false
}

// Rollback restores the application from the most recent snapshot with
// the given tag — the fault-tolerance half of snapshot management.
func (m *SnapshotManager) Rollback(tag string) error {
	ts, ok := m.Find(tag)
	if !ok {
		return fmt.Errorf("app: no snapshot tagged %q", tag)
	}
	return m.app.Unwrap(ts.Wrap)
}
