// Package obs is the middleware's observability core: a dependency-free
// metrics layer (atomic counters, gauges, log-bucketed latency
// histograms, a process-wide named registry with Prometheus text
// exposition) and cross-host migration tracing (trace.go). Hot paths pin
// metric pointers at construction time, so the per-event cost is a
// single atomic add — the registry lock is only taken at registration
// and snapshot time.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log2 duration buckets: bucket i holds
// observations with bits.Len64(ns) == i, i.e. durations in
// [2^(i-1), 2^i) ns. 48 buckets cover up to ~39 hours.
const histBuckets = 48

// Histogram is a log-bucketed latency histogram. Observe costs three
// atomic adds and no allocation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Bucket is one non-cumulative histogram bucket: Count observations with
// duration <= Le nanoseconds (and above the previous bucket's Le).
type Bucket struct {
	Le    int64 // upper bound, nanoseconds
	Count int64
}

// Sample is one metric's point-in-time value, the serializable form
// returned by Registry.Snapshot and shipped over the control plane.
type Sample struct {
	Name   string
	Labels map[string]string
	Type   string // "counter", "gauge", "histogram"
	Value  int64  // counter/gauge value
	Count  int64  // histogram observation count
	Sum    int64  // histogram total, nanoseconds
	Bkts   []Bucket
}

// ID renders the metric's identity as name{k="v",...} with sorted label
// keys — stable across snapshots.
func (s Sample) ID() string { return metricID(s.Name, s.Labels) }

// Mean returns the histogram's mean observation (0 when empty).
func (s Sample) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

func metricID(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

type metric struct {
	name    string
	labels  map[string]string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is a named collection of metrics. Lookups are get-or-create
// and take a lock; callers on hot paths resolve their metrics once and
// keep the pointer.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry every subsystem registers into.
var Default = NewRegistry()

func labelMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic("obs: label key without value")
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func (r *Registry) get(name string, kv []string) *metric {
	labels := labelMap(kv)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[id]
	if !ok {
		m = &metric{name: name, labels: labels}
		r.metrics[id] = m
	}
	return m
}

// Counter returns the named counter, creating it on first use. kv is an
// alternating key, value label list.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	m := r.get(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	m := r.get(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	m := r.get(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.hist == nil {
		m.hist = &Histogram{}
	}
	return m.hist
}

// Snapshot returns every registered metric's current value, sorted by
// identity for deterministic output.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		var labels map[string]string
		if len(m.labels) > 0 {
			labels = make(map[string]string, len(m.labels))
			for k, v := range m.labels {
				labels[k] = v
			}
		}
		switch {
		case m.counter != nil:
			out = append(out, Sample{Name: m.name, Labels: labels, Type: "counter", Value: m.counter.Value()})
		case m.gauge != nil:
			out = append(out, Sample{Name: m.name, Labels: labels, Type: "gauge", Value: m.gauge.Value()})
		case m.hist != nil:
			s := Sample{Name: m.name, Labels: labels, Type: "histogram",
				Count: m.hist.count.Load(), Sum: m.hist.sum.Load()}
			for i := range m.hist.buckets {
				c := m.hist.buckets[i].Load()
				if c == 0 {
					continue
				}
				le := int64(-1) // top bucket is unbounded
				if i < histBuckets-1 {
					le = int64(1)<<uint(i) - 1
				}
				s.Bkts = append(s.Bkts, Bucket{Le: le, Count: c})
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// WriteProm writes the registry in the Prometheus text exposition format
// (version 0.0.4). Histograms are emitted with cumulative buckets, le in
// seconds.
func (r *Registry) WriteProm(w io.Writer) error {
	samples := r.Snapshot()
	typed := make(map[string]bool)
	for _, s := range samples {
		if !typed[s.Name] {
			typed[s.Name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type); err != nil {
				return err
			}
		}
		lbl := promLabels(s.Labels, "", 0)
		switch s.Type {
		case "counter", "gauge":
			if _, err := fmt.Fprintf(w, "%s%s %d\n", s.Name, lbl, s.Value); err != nil {
				return err
			}
		case "histogram":
			cum := int64(0)
			for _, b := range s.Bkts {
				if b.Le < 0 {
					continue
				}
				cum += b.Count
				le := float64(b.Le+1) / 1e9
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.Name, promLabels(s.Labels, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				s.Name, promLabels(s.Labels, "le", "+Inf"), s.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", s.Name, lbl, float64(s.Sum)/1e9); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, lbl, s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders a label set, optionally with a trailing le label
// (histogram buckets), in the Prometheus sample-line syntax.
func promLabels(labels map[string]string, leKey string, le any) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if leKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		switch v := le.(type) {
		case string:
			fmt.Fprintf(&b, "%s=%q", leKey, v)
		case float64:
			fmt.Fprintf(&b, "%s=\"%g\"", leKey, v)
		}
	}
	b.WriteByte('}')
	return b.String()
}
