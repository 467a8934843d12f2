package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Migration phase names, in protocol order. The source host records the
// first three; the destination records restore and rebind and returns
// them in the checkin reply so the source holds the complete timeline.
const (
	PhaseSuspend  = "suspend"
	PhaseCapture  = "capture"
	PhaseTransfer = "transfer"
	PhaseRestore  = "restore"
	PhaseRebind   = "rebind"
)

// phases lists the phases in protocol order; a complete trace holds a
// span of each.
var phases = [...]string{PhaseSuspend, PhaseCapture, PhaseTransfer, PhaseRestore, PhaseRebind}

// Span is one timed phase of one migration, attributed to the host whose
// clock measured it. Spans cross the wire inside the checkin reply, so
// every field must stay gob-friendly.
type Span struct {
	Trace string // trace id minted at migration start
	App   string
	Phase string
	Host  string // host that recorded the span
	Start time.Time
	Dur   time.Duration
	Note  string // phase detail: frame kind, bytes, rebind counts
}

// MigrationTrace is the assembled timeline of one migration.
type MigrationTrace struct {
	ID    string
	App   string
	From  string
	To    string
	Start time.Time
	Spans []Span // sorted by start time
}

// Complete reports whether all five phases are present.
func (t MigrationTrace) Complete() bool {
	seen := make(map[string]bool, len(t.Spans))
	for _, sp := range t.Spans {
		seen[sp.Phase] = true
	}
	for _, p := range phases {
		if !seen[p] {
			return false
		}
	}
	return true
}

// TraceLog retains recent migration traces, bounded FIFO per process.
type TraceLog struct {
	mu     sync.Mutex
	cap    int
	byID   map[string]*MigrationTrace
	order  []string          // insertion order, for eviction
	latest map[string]string // app -> most recently touched trace id
}

// NewTraceLog returns a log retaining at most capacity traces.
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = 64
	}
	return &TraceLog{
		cap:    capacity,
		byID:   make(map[string]*MigrationTrace),
		latest: make(map[string]string),
	}
}

// Traces is the process-wide trace log.
var Traces = NewTraceLog(128)

var traceSeq atomic.Int64

// NewTraceID mints a process-unique migration trace id. Its numbers are
// fixed-width hex, so an id's length depends on the app and host alone:
// a migration's frames, which carry it, are the same size whichever
// migration of the process it is (the simulated network prices bytes).
func NewTraceID(app, host string) string {
	return fmt.Sprintf("mig-%s-%s-%016x-%016x", app, host, uint64(time.Now().UnixNano()), uint64(traceSeq.Add(1)))
}

// Begin registers a new trace for app migrating from -> to and returns
// its id.
func (l *TraceLog) Begin(app, from, to string) string {
	id := NewTraceID(app, from)
	l.mu.Lock()
	l.insertLocked(&MigrationTrace{ID: id, App: app, From: from, To: to, Start: time.Now()})
	l.latest[app] = id
	l.mu.Unlock()
	return id
}

// Record appends a span to its trace, creating the trace entry when this
// process first hears of the id (the destination side of a migration
// learns the id from the wire frame). Spans with an empty trace id (an
// old sender that predates tracing) are dropped.
func (l *TraceLog) Record(sp Span) {
	if sp.Trace == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tr, ok := l.byID[sp.Trace]
	if !ok {
		tr = &MigrationTrace{ID: sp.Trace, App: sp.App, Start: sp.Start, Spans: make([]Span, 0, len(phases))}
		l.insertLocked(tr)
	}
	if tr.Start.IsZero() || (!sp.Start.IsZero() && sp.Start.Before(tr.Start)) {
		tr.Start = sp.Start
	}
	// Idempotent per (phase, host): in-process deployments share one
	// TraceLog between both engines, so the destination's spans arrive
	// twice — once recorded directly, once merged from the checkin reply.
	for i := range tr.Spans {
		if tr.Spans[i].Phase == sp.Phase && tr.Spans[i].Host == sp.Host {
			tr.Spans[i] = sp
			if sp.App != "" {
				l.latest[sp.App] = sp.Trace
			}
			return
		}
	}
	tr.Spans = append(tr.Spans, sp)
	if sp.App != "" {
		l.latest[sp.App] = sp.Trace
	}
}

// insertLocked adds a trace and evicts the oldest past capacity.
func (l *TraceLog) insertLocked(tr *MigrationTrace) {
	l.byID[tr.ID] = tr
	l.order = append(l.order, tr.ID)
	for len(l.order) > l.cap {
		old := l.order[0]
		l.order = l.order[1:]
		if ev, ok := l.byID[old]; ok {
			delete(l.byID, old)
			if l.latest[ev.App] == old {
				delete(l.latest, ev.App)
			}
		}
	}
}

// Latest returns the most recently touched trace for app.
func (l *TraceLog) Latest(app string) (MigrationTrace, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.latest[app]
	if !ok {
		return MigrationTrace{}, false
	}
	tr, ok := l.byID[id]
	if !ok {
		return MigrationTrace{}, false
	}
	return tr.sorted(), true
}

func (t *MigrationTrace) sorted() MigrationTrace {
	out := *t
	out.Spans = make([]Span, len(t.Spans))
	copy(out.Spans, t.Spans)
	sort.SliceStable(out.Spans, func(i, j int) bool {
		return out.Spans[i].Start.Before(out.Spans[j].Start)
	})
	return out
}
