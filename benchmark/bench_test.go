package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"mdagent/internal/obs"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(199, 0.95) || !supports(200, 0.95) {
		t.Error("p95 must be supported from exactly 200 samples on")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.95: 10, 0.01: 1, 1: 10} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// window builds samples: perSlice[i] operations of latency lat[i] ms in
// sub-window i of a window of subWindows seconds.
func window(perSlice []int, lat []float64) []opSample {
	var out []opSample
	for i, n := range perSlice {
		for k := 0; k < n; k++ {
			out = append(out, opSample{
				end: time.Duration(i)*time.Second + time.Duration(k+1)*time.Second/time.Duration(n+1),
				lat: time.Duration(lat[i] * float64(time.Millisecond)),
			})
		}
	}
	return out
}

func TestSummarizeTakesMediansOverSubWindows(t *testing.T) {
	// One stalled sub-window: a fifth of the ops at ten times the latency.
	s := window([]int{300, 300, 60, 300, 300, 300}, []float64{2, 2, 20, 2, 2, 2})
	f := summarize(s, subWindows*time.Second)
	if f.p50ms != 2 || f.opsPerSec != 300 {
		t.Errorf("p50 %v ms at %v ops/s, want 2 ms at 300 ops/s: the stall must not move the medians", f.p50ms, f.opsPerSec)
	}
	if want := []int{300, 300, 60, 300, 300, 300}; !slices.Equal(f.perSlice, want) {
		t.Errorf("ops per sub-window %v, want %v", f.perSlice, want)
	}
	// The stalled sub-window holds fewer than 200 ops, so p95 is pooled:
	// 60 of 1560 ops (3.8%) are slow, the 95th percentile is still fast.
	if f.p95ms != 2 {
		t.Errorf("pooled p95 = %v ms, want 2", f.p95ms)
	}
	// With every sub-window at 200 ops or more, p95 is a median of six.
	s = window([]int{200, 200, 200, 200, 200, 200}, []float64{1, 2, 3, 4, 5, 60})
	if f = summarize(s, subWindows*time.Second); f.p95ms != 3.5 {
		t.Errorf("sub-window p95 = %v ms, want the median 3.5", f.p95ms)
	}
	// An operation that ends after the window closed counts in the last slice.
	late := []opSample{{end: 7 * time.Second, lat: time.Millisecond}}
	if got := summarize(late, subWindows*time.Second).perSlice[subWindows-1]; got != 1 {
		t.Errorf("late completion landed in %v", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1.0, 1.1, 1.2, 5.0], n=4) == [1.025, 1.15, 4.05]
	if got, want := spread([]float64{1.0, 1.1, 1.2, 5.0}), (4.05-1.025)/1.15; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 80, End: 120, Parent: 0}, // runs past the parent
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - (50 + 20), 30 - 5, 30, 40, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderOffRecordsNothingAndSinceRebases(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", -1, 0); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	r := newRecorder()
	if id := r.begin("x", -1, 0); id != -1 {
		t.Errorf("switched-off recorder returned span %d", id)
	}
	r.enable(true)
	root := r.begin("early", -1, 1)
	r.end(root)
	mark := r.mark()
	p := r.begin("op", -1, 2)
	c := r.begin("child", p, 2)
	orphan := r.begin("orphan", root, 2)
	for _, id := range []int{c, orphan, p} {
		r.end(id)
	}
	got := r.since(mark)
	if len(got) != 3 || got[0].Parent != -1 || got[1].Parent != 0 || got[2].Parent != -1 {
		t.Errorf("since(mark) = %+v: want the op as root, its child under it, the earlier span's child as root", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command holds a space and a ')'; utime 150 and stime 50 ticks.
	text := "4242 (md agentd) x) S 1 4242 4242 0 -1 4194304 1000 0 0 0 150 50 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615"
	ms, err := parseStat(text)
	if err != nil || ms != 2000 {
		t.Errorf("parseStat = %v, %v; want 2000 ms", ms, err)
	}
	if _, err := parseStat("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseStat("no command here"); err == nil {
		t.Error("stat line without a command parsed")
	}
}

func TestParseProcIOAndStatus(t *testing.T) {
	io := "rchar: 1000\nwchar: 123456\nsyscr: 10\nsyscw: 77\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	kv, err := parseKeyed(io, "syscw", "wchar")
	if err != nil || kv["syscw"] != 77 || kv["wchar"] != 123456 {
		t.Errorf("io parsed to %v, %v", kv, err)
	}
	status := "Name:\tmdagentd\nVmPeak:\t  200000 kB\nVmHWM:\t   23216 kB\nVmRSS:\t   20000 kB\n"
	kv, err = parseKeyed(status, "VmHWM")
	if err != nil || kv["VmHWM"] != 23216 {
		t.Errorf("status parsed to %v, %v", kv, err)
	}
	if _, err := parseKeyed(status, "VmSwap"); err == nil {
		t.Error("missing key not reported")
	}
	if _, err := readProc(os.Getpid()); err != nil {
		t.Errorf("reading this process's /proc entries: %v", err)
	}
}

func TestCounterDeltaScraping(t *testing.T) {
	before := []obs.Sample{
		{Name: "mdagent_fed_push_total", Labels: map[string]string{"space": "lab1"}, Type: "counter", Value: 10},
		{Name: "mdagent_fed_push_total", Labels: map[string]string{"space": "lab2"}, Type: "counter", Value: 100},
		{Name: "mdagent_fed_ack_wait_ns", Labels: map[string]string{"space": "lab1"}, Type: "histogram", Count: 4, Sum: 4000},
	}
	after := []obs.Sample{
		{Name: "mdagent_fed_push_total", Labels: map[string]string{"space": "lab1"}, Type: "counter", Value: 50},
		{Name: "mdagent_fed_push_total", Labels: map[string]string{"space": "lab2"}, Type: "counter", Value: 101},
		{Name: "mdagent_fed_ack_wait_ns", Labels: map[string]string{"space": "lab1"}, Type: "histogram", Count: 14, Sum: 34000},
		{Name: "mdagent_new_total", Type: "counter", Value: 3}, // registered between the scrapes
	}
	if got := counterDelta(before, after, "mdagent_fed_push_total", "space", "lab1"); got != 40 {
		t.Errorf("labelled delta = %v, want 40", got)
	}
	if got := counterDelta(before, after, "mdagent_fed_push_total"); got != 41 {
		t.Errorf("delta over every label set = %v, want 41", got)
	}
	if got := counterDelta(before, after, "mdagent_new_total"); got != 3 {
		t.Errorf("delta of a counter absent from the first scrape = %v, want 3", got)
	}
	if mean, n := histMeanDelta(before, after, "mdagent_fed_ack_wait_ns", "space", "lab1"); mean != 3000 || n != 10 {
		t.Errorf("histogram mean over the interval = %v over %d, want 3000 over 10", mean, n)
	}
	if mean, n := histMeanDelta(before, before, "mdagent_fed_ack_wait_ns"); mean != 0 || n != 0 {
		t.Errorf("histogram that did not move reported %v over %d", mean, n)
	}
}

var nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredNamesMatchBenchmarkFile holds BENCHMARK.json and the names
// this program emits equal, and checks the file against the limits of
// the contract it is written to.
func TestDeclaredNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	if len(keys) > 0 {
		t.Errorf("BENCHMARK.json has keys outside the contract: %v", keys)
	}
	decl, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] || !nameRule.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloadNames[i])
		}
		seen[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no definition", w.Name)
		}
	}
	check := func(kind string, declared []declared, emitted []metricSpec, bounded bool) {
		if len(declared) != len(emitted) {
			t.Fatalf("%s: %d declared, %d emitted", kind, len(declared), len(emitted))
		}
		for i, d := range declared {
			e := emitted[i]
			if d.Name != e.name || d.Unit != e.unit || d.Better != e.better {
				t.Errorf("%s %d: declared %+v, emitted %+v", kind, i, d, e)
			}
			if !nameRule.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s name %q is malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
	if e := decl.EndToEnd[0]; e.Name != "setup_s" || e.Unit != "s" || e.Better != "lower" {
		t.Errorf("the set-up metric is declared as %+v", e)
	}
	// The result line carries exactly the declared names.
	out := outcome{correct: true, attempted: 1, metrics: metrics{}}
	for _, spec := range [][]metricSpec{endToEnd, perLayer} {
		var line struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal(resultLine(out, spec), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(spec) {
			t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(spec))
		}
		for _, s := range spec {
			if line.Metrics[s.name].Unit != s.unit {
				t.Errorf("result line: %s has unit %q, want %q", s.name, line.Metrics[s.name].Unit, s.unit)
			}
		}
	}
}

// TestSmokeEveryWorkload spawns the real daemons: every workload, one
// second, both kinds of run. Every declared metric must come back and
// every correctness check must pass.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns mdagentd and mdregistry")
	}
	for _, name := range workloadNames {
		for trace, spec := range [][]metricSpec{endToEnd, perLayer} {
			var stdout bytes.Buffer
			args := []string{"-workload", name, "-trace", []string{"0", "1"}[trace], "-seed", "5", "-seconds", "1"}
			if code := run(args, &stdout); code != 0 {
				t.Fatalf("%v: exit code %d\n%s", args, code, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v\n%s", args, err, stdout.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v, %d failed of %d\n%s", args, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			if len(res.Metrics) != len(spec) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(spec))
			}
			for _, s := range spec {
				if m, ok := res.Metrics[s.name]; !ok || m.Value == nil || m.Unit != s.unit {
					t.Errorf("%v: metric %s missing or without value and unit", args, s.name)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join("results", "trace-"+name+".json")); err != nil {
					t.Errorf("%v: no span file: %v", args, err)
				}
			}
		}
	}
}
