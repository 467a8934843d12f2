// Command benchmark is MDAgent's real-wire benchmark: it builds
// cmd/mdagentd and cmd/mdregistry unchanged, spawns them as processes on
// loopback TCP, drives them through the layers' public clients, checks
// every result, and prints every metric by name with its unit. See
// README.md in this directory for the workloads and the ground rules.
//
//	go run -C benchmark .                    every workload, both kinds of run
//	go run -C benchmark . -workload session-quorum -trace 0 -seed 7 -seconds 12
//	go run -C benchmark . -selfcheck         two sets of runs must agree within the bounds
//	go run -C benchmark . -calibrate 10      the spread table the bounds come from
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var f benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(raw, &f)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all)")
	seed := fs.Int64("seed", 1, "seed of session contents, session order, written values and the background writer's schedule")
	seconds := fs.Int("seconds", 0, "length of a run's measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: tracing off, end-to-end metrics; 1: tracing on, per-layer metrics (default: one run of each)")
	outPath := fs.String("out", "", "also write the results as JSON to this file")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice with tracing off and fail if a pair differs by more than its bound")
	calibrate := fs.Int("calibrate", 0, "run every workload this many times with tracing off, each on its own seed, and print spread/median per metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	d, err := findDirs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	decl, err := readBenchmarkFile(d.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = decl.RunSeconds
	}
	window := time.Duration(*seconds) * time.Second

	// Daemons die with the generator: on a signal, on a panic, and (through
	// Pdeathsig) when the generator itself is killed.
	ctx := context.Background()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		live.closeAll(true)
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			live.closeAll(true)
			panic(p)
		}
		live.closeAll(code != 0)
		_ = os.Remove(d.run) // empty once every deployment is closed
	}()

	buildTook, err := buildDaemons(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printHeader(stdout, d, *seed, window, buildTook)
	r := &runner{d: d, log: stdout}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}

	switch {
	case *selfcheck:
		return r.selfcheck(ctx, names, *seed, window, decl)
	case *calibrate > 0:
		return r.calibrate(ctx, names, *seed, window, *calibrate)
	}

	type record struct {
		Workload string          `json:"workload"`
		Trace    int             `json:"trace"`
		Seed     int64           `json:"seed"`
		Seconds  int             `json:"seconds"`
		Result   json.RawMessage `json:"result"`
		Notes    []string        `json:"notes,omitempty"`
	}
	var records []record
	var last []byte
	allCorrect := true
	for _, name := range names {
		for _, tr := range []int{0, 1} {
			if *trace >= 0 && *trace != tr {
				continue
			}
			var out outcome
			spec := endToEnd
			if tr == 0 {
				out, err = r.endToEnd(ctx, name, *seed, window)
			} else {
				out, err = r.traced(ctx, name, *seed, window)
				spec = perLayer
			}
			for _, n := range out.notes {
				fmt.Fprintf(stdout, "# %s: %s\n", name, n)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			allCorrect = allCorrect && out.correct
			printTable(stdout, name, tr, out, spec)
			last = resultLine(out, spec)
			records = append(records, record{Workload: name, Trace: tr, Seed: *seed, Seconds: *seconds,
				Result: last, Notes: out.notes})
		}
	}
	if *outPath != "" {
		raw, err := json.MarshalIndent(records, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if len(records) == 1 {
		// One workload, one kind of run: the driver's contract. The result
		// is the last line of standard output; correct says whether the
		// checks passed.
		fmt.Fprintf(stdout, "%s\n", last)
		return 0
	}
	if !allCorrect {
		fmt.Fprintln(stdout, "# FAILED: at least one run had failed operations or a failed check")
		return 1
	}
	return 0
}

// resultLine renders a run as the one JSON object the contract asks for.
func resultLine(out outcome, spec []metricSpec) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(spec))
	for _, s := range spec {
		ms[s.name] = value{out.metrics[s.name], s.unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return raw
}

func printTable(w io.Writer, name string, trace int, out outcome, spec []metricSpec) {
	fmt.Fprintf(w, "\n== %s, tracing %s: %d attempted, %d failed, correct=%v\n",
		name, map[int]string{0: "off", 1: "on"}[trace], out.attempted, out.failed, out.correct)
	for _, s := range spec {
		fmt.Fprintf(w, "%-42s %14.4f %s\n", s.name, out.metrics[s.name], s.unit)
	}
	if trace == 1 && out.metrics["budget.explained_frac"] < 0.8 {
		fmt.Fprintf(w, "# finding: %.0f%% of %s's op_p50_ms is not explained by the layer times on its blocking path\n",
			100*(1-out.metrics["budget.explained_frac"]), name)
	}
}

func printHeader(w io.Writer, d dirs, seed int64, window, buildTook time.Duration) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if out, err := exec.Command("git", "-C", d.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "# mdagent real-wire benchmark: %s, nproc %d, GOMAXPROCS %d, kernel %s, commit %s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), strings.TrimSpace(string(kernel)), commit)
	fmt.Fprintf(w, "# seed %d, measured window %v (%d sub-windows), loopback TCP, go build of the daemons took %v\n",
		seed, window, subWindows, buildTook.Round(time.Millisecond))
}

// worse is by what share of a the value b is worse than a.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs every workload twice on the same code, the two sets
// interleaved workload by workload, and fails when a pair of values
// differs by more than the metric's bound.
func (r *runner) selfcheck(ctx context.Context, names []string, seed int64, window time.Duration, decl benchmarkFile) int {
	code := 0
	fmt.Fprintf(r.log, "\n%-22s %-14s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		var pair [2]outcome
		for i := range pair {
			var err error
			if pair[i], err = r.endToEnd(ctx, name, seed, window); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !pair[i].correct {
				fmt.Fprintf(r.log, "# %s run %d: %v\n", name, i+1, pair[i].notes)
				code = 1
			}
		}
		for _, e := range decl.EndToEnd {
			a, b := pair[0].metrics[e.Name], pair[1].metrics[e.Name]
			diff := max(worse(e.Better, a, b), worse(e.Better, b, a))
			verdict := ""
			if diff > e.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Fprintf(r.log, "%-22s %-14s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", name, e.Name, a, b, 100*diff, 100*e.Bound, verdict)
		}
	}
	return code
}

// calibrate prints, per end-to-end metric and workload, the median and
// the quartile spread over n runs on n seeds: the figure a bound must
// stay well above.
func (r *runner) calibrate(ctx context.Context, names []string, seed int64, window time.Duration, n int) int {
	values := map[string]map[string][]float64{}
	for _, name := range names {
		values[name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			out, err := r.endToEnd(ctx, name, seed+int64(i), window)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !out.correct {
				fmt.Fprintf(r.log, "# %s seed %d: %v\n", name, seed+int64(i), out.notes)
				return 1
			}
			for _, e := range endToEnd {
				values[name][e.name] = append(values[name][e.name], out.metrics[e.name])
			}
		}
	}
	fmt.Fprintf(r.log, "\n%-22s %-14s %12s %10s  values\n", "workload", "metric", "median", "IQR/median")
	for _, name := range names {
		for _, e := range endToEnd {
			v := values[name][e.name]
			fmt.Fprintf(r.log, "%-22s %-14s %12.4f %9.1f%%  %.4g\n", name, e.name, median(v), 100*spread(v), v)
		}
	}
	return 0
}
