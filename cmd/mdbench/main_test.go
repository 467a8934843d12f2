package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdagent/internal/bench"
	"mdagent/internal/cluster"
)

// TestMain lets the test binary serve as the kill-mid-commit audit
// child when RunStoreCrash re-execs it with the crash env var set, and as
// the paper-figures child of TestPaperFiguresGolden.
func TestMain(m *testing.M) {
	if bench.StoreCrashChildMain() || paperFigsChildMain() {
		return
	}
	os.Exit(m.Run())
}

// TestRunFig7PrintsTableAndCSV runs the fastest figure end to end and
// checks both the table and the CSV sidecar.
func TestRunFig7PrintsTableAndCSV(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "fig7.csv")
	var out bytes.Buffer
	if err := run([]string{"-fig", "7", "-csv", csvPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 7") || !strings.Contains(out.String(), "skew-canceled") {
		t.Fatalf("fig7 table missing:\n%s", out.String())
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "fig7,skew_ms") {
		t.Fatalf("csv header wrong: %q", string(csv[:min(len(csv), 40)]))
	}
}

// TestRunChurnFigure runs the cluster churn experiment through the CLI.
func TestRunChurnFigure(t *testing.T) {
	var out bytes.Buffer
	// Small song: under -race, multi-megabyte snapshot captures at the
	// tight churn cadence can starve the probe loops.
	if err := run([]string{"-fig", "churn", "-spaces", "3", "-song-bytes", "100000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gossip convergence") {
		t.Fatalf("churn output missing:\n%s", out.String())
	}
}

// TestRunRejectsBadFlags covers the flag surface.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "nope"}, &out); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-fig", "churn", "-spaces", "2"}, &out); err == nil {
		t.Fatal("churn with 2 spaces accepted (no quorum possible)")
	}
}

// TestRunFlapFigure runs the flapping-link experiment through the CLI.
func TestRunFlapFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "flap", "-spaces", "3", "-flap-period", "5ms", "-flap-cycles", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "false dead convictions") {
		t.Fatalf("flap output missing:\n%s", out.String())
	}
}

// TestRunDurabilityFigureWithJSON runs the kill-after-write experiment
// through the CLI (comma-separated figure list) and checks the JSON
// document CI uploads as BENCH_pr4.json.
func TestRunDurabilityFigureWithJSON(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-fig", "durability", "-spaces", "3", "-dur-writes", "4", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "silent-loss") {
		t.Fatalf("durability table missing:\n%s", out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON document does not parse: %v", err)
	}
	entry, ok := doc["durability"].(map[string]any)
	if !ok {
		t.Fatalf("durability JSON entry = %v, want self-describing envelope", doc["durability"])
	}
	// Self-describing envelope: the record carries enough context to be
	// interpreted without the CLI invocation that produced it.
	if entry["figure"] != "durability" {
		t.Fatalf("envelope figure = %v, want durability", entry["figure"])
	}
	if g, _ := entry["go"].(string); !strings.HasPrefix(g, "go") {
		t.Fatalf("envelope go version = %v", entry["go"])
	}
	if gp, _ := entry["gomaxprocs"].(float64); gp < 1 {
		t.Fatalf("envelope gomaxprocs = %v", entry["gomaxprocs"])
	}
	knobs, _ := entry["config"].(map[string]any)
	if knobs["spaces"].(float64) != 3 || knobs["writes"].(float64) != 4 {
		t.Fatalf("envelope config = %v, want spaces=3 writes=4", entry["config"])
	}
	results, ok := entry["result"].([]any)
	if !ok || len(results) != 3 {
		t.Fatalf("durability JSON result = %v, want 3 concern results", entry["result"])
	}
	for _, r := range results {
		m := r.(map[string]any)
		if m["Concern"] == string(cluster.WriteQuorum) && m["SilentLoss"].(float64) != 0 {
			t.Fatalf("quorum silent loss in JSON = %v, want 0", m["SilentLoss"])
		}
	}
}

// TestRunStoreFigure runs a smoke-sized storage-engine experiment —
// all four engine rows plus one kill-mid-commit audit trial — and
// checks the zero-acknowledged-loss line.
func TestRunStoreFigure(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-fig", "store",
		"-store-records", "2000", "-store-ops", "2000", "-store-writers", "4",
		"-store-blob-every", "16", "-store-blob-bytes", "8192",
		"-store-crash-trials", "1", "-store-crash-after", "100ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "writes/sec") || !strings.Contains(s, "p99") {
		t.Fatalf("store table missing:\n%s", s)
	}
	if !strings.Contains(s, "0 lost") {
		t.Fatalf("kill-mid-commit audit reported losses:\n%s", s)
	}
}

// TestRunSuspicionFigure runs a small timeout sweep and checks the
// recommended-default line appears for the long-timeout end.
func TestRunSuspicionFigure(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-fig", "suspicion",
		"-suspicion-hosts", "6", "-suspicion-cycles", "2",
		// The long end must stay clean even when -race slows the tick
		// loop (suspicion runs on wall clocks), so it is generously wide.
		"-suspicion-blip", "30ms", "-suspicion-timeouts", "15ms,2s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "detect-wall") {
		t.Fatalf("suspicion table missing:\n%s", s)
	}
	if !strings.Contains(s, "zero premature convictions") {
		t.Fatalf("no recommended timeout found:\n%s", s)
	}
}

// TestRunDeltaFigure runs the delta sweep through the CLI with a short
// tick count.
func TestRunDeltaFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "delta", "-delta-ticks", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fewer bytes") {
		t.Fatalf("delta sweep output missing the savings ratio:\n%s", out.String())
	}
}
