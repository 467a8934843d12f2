package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "host", "h1")
	g := reg.Gauge("test_level")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(int64(j + 1))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 1000 {
		t.Fatalf("gauge = %d, want 1000, every writer's last value", g.Value())
	}
	// Same name+labels resolves to the same counter.
	if reg.Counter("test_total", "host", "h1") != c {
		t.Fatal("lookup did not return the registered counter")
	}
	// Different labels are a different series.
	if reg.Counter("test_total", "host", "h2") == c {
		t.Fatal("distinct labels must be a distinct series")
	}
	c.Add(-5)
	if c.Value() != 8000 {
		t.Fatal("counter must ignore negative adds")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ns")
	for _, d := range []time.Duration{0, 1, 100, 1000, 1000, 1 << 20} {
		h.Observe(d)
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Type != "histogram" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Count != 6 {
		t.Fatalf("count = %d, want 6", snap[0].Count)
	}
	want := time.Duration(0 + 1 + 100 + 1000 + 1000 + 1<<20)
	if got := time.Duration(snap[0].Sum); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var total int64
	for _, b := range snap[0].Bkts {
		total += b.Count
	}
	if total != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", total)
	}
	if snap[0].Mean() != want/6 {
		t.Fatalf("mean = %v, want %v", snap[0].Mean(), want/6)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total")
	reg.Counter("aa_total", "host", "h2")
	reg.Counter("aa_total", "host", "h1")
	reg.Gauge("mm_level")
	snap := reg.Snapshot()
	var ids []string
	for _, s := range snap {
		ids = append(ids, s.ID())
	}
	want := []string{`aa_total{host="h1"}`, `aa_total{host="h2"}`, "mm_level", "zz_total"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", ids, want)
	}
}

func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "host", "h1").Add(3)
	reg.Gauge("queue_depth").Set(7)
	reg.Histogram("lat_ns").Observe(1500 * time.Nanosecond)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{host="h1"} 3`,
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="+Inf"} 1`,
		"lat_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTraceLogTimeline(t *testing.T) {
	l := NewTraceLog(4)
	id := l.Begin("player", "hostA", "hostB")
	base := time.Now()
	phases := []string{PhaseSuspend, PhaseCapture, PhaseTransfer, PhaseRestore, PhaseRebind}
	for i, ph := range phases {
		host := "hostA"
		if ph == PhaseRestore || ph == PhaseRebind {
			host = "hostB"
		}
		l.Record(Span{Trace: id, App: "player", Phase: ph, Host: host,
			Start: base.Add(time.Duration(i) * time.Millisecond), Dur: time.Millisecond})
	}
	tr, ok := l.Latest("player")
	if !ok {
		t.Fatal("no latest trace")
	}
	if tr.ID != id || tr.From != "hostA" || tr.To != "hostB" {
		t.Fatalf("trace header = %+v", tr)
	}
	if !tr.Complete() {
		t.Fatalf("trace incomplete: %+v", tr.Spans)
	}
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].Start.Before(tr.Spans[i-1].Start) {
			t.Fatal("spans not sorted by start")
		}
	}
	if len(tr.Spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(tr.Spans))
	}
}

func TestTraceLogDestSideAssembly(t *testing.T) {
	// The destination learns the id from the wire and records spans into
	// a log that never saw Begin.
	l := NewTraceLog(4)
	l.Record(Span{Trace: "mig-x-1", App: "player", Phase: PhaseRestore, Host: "hostB", Start: time.Now()})
	l.Record(Span{Trace: "mig-x-1", App: "player", Phase: PhaseRebind, Host: "hostB", Start: time.Now()})
	tr, ok := l.Latest("player")
	if !ok || len(tr.Spans) != 2 {
		t.Fatalf("dest-side trace = %+v ok=%v", tr, ok)
	}
	// Empty trace ids (pre-tracing senders) are dropped.
	l.Record(Span{Trace: "", App: "player", Phase: PhaseRestore})
	if tr, _ := l.Latest("player"); len(tr.Spans) != 2 {
		t.Fatal("empty trace id must be dropped")
	}
}

func TestTraceLogEviction(t *testing.T) {
	l := NewTraceLog(2)
	a := l.Begin("a", "h1", "h2")
	l.Begin("b", "h1", "h2")
	l.Begin("c", "h1", "h2")
	if _, ok := l.byID[a]; ok {
		t.Fatal("oldest trace should be evicted")
	}
	if _, ok := l.Latest("b"); !ok {
		t.Fatal("b should survive")
	}
	if _, ok := l.Latest("c"); !ok {
		t.Fatal("c should survive")
	}
	if _, ok := l.Latest("a"); ok {
		t.Fatal("latest index must drop evicted traces")
	}
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	ds, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, path := range []string{"/healthz", "/metrics", "/debug/pprof/"} {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
		if path == "/metrics" && !strings.Contains(string(body), "up_total 1") {
			t.Fatalf("exposition missing up_total:\n%s", body)
		}
	}
}

// TestRecordSizesSpansOnce: a trace's span slice is made for the five
// phases when the trace is created, so recording all five allocates no
// more than recording the first.
func TestRecordSizesSpansOnce(t *testing.T) {
	record := func(ps []string) float64 {
		return testing.AllocsPerRun(100, func() {
			l := NewTraceLog(1)
			for _, p := range ps {
				l.Record(Span{Trace: "t1", App: "a", Phase: p, Host: "h"})
			}
		})
	}
	if one, five := record(phases[:1]), record(phases[:]); five != one {
		t.Fatalf("recording five spans makes %v allocations, one span %v; want the same", five, one)
	}
}
