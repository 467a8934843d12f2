package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the generator around
// the layer's public function. Times are nanoseconds since the recorder
// was created; Parent is the index of the causing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil or switched-
// off recorder records nothing, so the untraced window runs the same
// code with one branch per call.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) enable(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// begin opens a span and returns its index, or -1 when not recording.
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span timed elsewhere on this host's clock (a phase the
// daemon reported), or returns -1 when not recording.
func (r *recorder) add(name string, start time.Time, dur time.Duration, parent int, op int64) int {
	id := r.begin(name, parent, op)
	if id < 0 {
		return -1
	}
	r.mu.Lock()
	r.spans[id].Start = int64(start.Sub(r.t0))
	r.spans[id].End = r.spans[id].Start + int64(dur)
	r.mu.Unlock()
	return id
}

// mark is the number of spans recorded so far; since(mark) returns the
// spans recorded after it, re-based so that parents index the result.
// Spans whose parent predates the mark become roots.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans[mark:]...)
	for i := range out {
		if out[i].Parent -= mark; out[i].Parent < 0 {
			out[i].Parent = -1
		}
	}
	return out
}

// spanKey carries the current span through a context, so a layer wrapped
// deeper in the call (the timing Publisher under Replicator.Capture)
// can parent its span correctly.
type spanKey struct{}

type spanRef struct {
	id int
	op int64
}

func withSpan(ctx context.Context, id int, op int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, op: op})
}

func spanFrom(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return ref
	}
	return spanRef{id: -1}
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover. Overlapping children are merged first, so two
// concurrent children do not subtract the same interval twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// durationsOf collects, per span name, total durations and self times.
func durationsOf(spans []span) (total, self map[string][]time.Duration) {
	total, self = map[string][]time.Duration{}, map[string][]time.Duration{}
	st := selfTimes(spans)
	for i, s := range spans {
		total[s.Name] = append(total[s.Name], time.Duration(s.End-s.Start))
		self[s.Name] = append(self[s.Name], time.Duration(st[i]))
	}
	return total, self
}

// writeSpans stores the spans of one workload as results/trace-<name>.json.
func writeSpans(d dirs, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(d.results, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(d.results, "trace-"+workload+".json")
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns", spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
