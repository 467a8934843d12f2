// Command mdbench regenerates the paper's evaluation figures as tables
// (and optional CSV or JSON): Fig. 7 (skew-canceling timing), Fig. 8
// (adaptive component binding sweep), Fig. 9 (static binding sweep),
// Fig. 10 (comparative total cost), the demo-2 clone-dispatch fan-out,
// the cluster churn experiment (gossip convergence + failover latency,
// with and without snapshot-state replication), the flapping-link
// experiment (false-positive suspicion under link flap), the delta sweep
// (replicated bytes per capture tick against the full frame, across app
// sizes), the durability experiment (kill-after-write record loss
// across write concerns), the membership scale sweep (bounded gossip
// dissemination at 200-1,000 simulated hosts), the storage-engine
// experiment (sustained writes/sec and p99 put latency at 1M+ resident
// records per sync policy, plus a kill-mid-commit crash audit), and the
// suspicion-timeout sweep (detection latency vs false-positive rate à
// la Lifeguard).
//
// These are the figures that need the simulated fabric: virtual-clock
// testbed time, thousand-host sweeps, scripted kills and partitions.
// Everything that runs on a real wire — control-plane round trips, watch
// fan-out, durable-write and restore latency — is measured by the
// benchmark/ module over spawned daemons instead.
//
// Usage:
//
//	mdbench -fig all
//	mdbench -fig 8 -csv fig8.csv
//	mdbench -fig clone -rooms 4
//	mdbench -fig churn -spaces 5
//	mdbench -fig flap -flap-period 10ms -flap-cycles 20
//	mdbench -fig delta -delta-ticks 16
//	mdbench -fig members -members-hosts 200,500,1000
//	mdbench -fig churn,durability -json BENCH_pr4.json
//
// -fig accepts a comma-separated list; -json writes every figure that
// ran as one machine-readable document (CI uploads it per PR so the
// perf trajectory is diffable).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mdagent/internal/bench"
	"mdagent/internal/cluster"
	"mdagent/internal/migrate"
	"mdagent/internal/store"
)

// record stores one figure's result in the JSON document wrapped in a
// self-describing envelope: the figure name, the config knobs it ran
// with, and the runtime that produced it. A BENCH_prN.json record must
// be interpretable years later without the CI log that produced it.
func record(doc map[string]any, fig string, knobs map[string]any, result any) {
	doc[fig] = map[string]any{
		"figure":     fig,
		"config":     knobs,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"result":     result,
	}
}

func main() {
	// Kill-mid-commit audit hook: when the crash env var is set this
	// process is a re-exec'd SyncAlways writer child, not the CLI.
	if bench.StoreCrashChildMain() {
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "mdbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of mdbench.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mdbench", flag.ContinueOnError)
	fs.SetOutput(out)
	fig := fs.String("fig", "all", "figures to regenerate (comma-separated): 7, 8, 9, 10, clone, churn, flap, delta, durability, members, store, suspicion, or all")
	csvPath := fs.String("csv", "", "also write the series as CSV to this file")
	jsonPath := fs.String("json", "", "also write every figure that ran as one JSON document to this file")
	rooms := fs.Int("rooms", 3, "overflow rooms for the clone-dispatch experiment")
	spaces := fs.Int("spaces", 3, "smart spaces for the churn, flap and durability experiments (>= 3)")
	flapPeriod := fs.Duration("flap-period", 10*time.Millisecond, "link toggle half-period for the flap experiment")
	flapCycles := fs.Int("flap-cycles", 20, "down/up toggles for the flap experiment")
	songBytes := fs.Int64("song-bytes", 2_000_000, "song size for the churn experiment (sets the snapshot frame size)")
	deltaTicks := fs.Int("delta-ticks", 16, "mutated capture ticks per cell of the delta sweep")
	durWrites := fs.Int("dur-writes", 16, "writes per phase and record kind for the durability experiment")
	membersHosts := fs.String("members-hosts", "200,500,1000", "host counts for the membership scale sweep (comma-separated)")
	storeRecords := fs.Int("store-records", 1_000_000, "resident records preloaded for the storage-engine experiment")
	storeOps := fs.Int("store-ops", 200_000, "measured mixed writes for the storage-engine experiment")
	storeWriters := fs.Int("store-writers", 8, "concurrent writers for the storage-engine experiment")
	storeValueBytes := fs.Int("store-value-bytes", 128, "registry record size for the storage-engine experiment")
	storeBlobEvery := fs.Int("store-blob-every", 64, "every Nth write is a snapshot frame (0 disables)")
	storeBlobBytes := fs.Int("store-blob-bytes", 256<<10, "snapshot frame size for the storage-engine experiment")
	storeCrashTrials := fs.Int("store-crash-trials", 3, "kill-mid-commit audit trials (0 disables)")
	storeCrashAfter := fs.Duration("store-crash-after", 250*time.Millisecond, "base writer lifetime before the mid-commit SIGKILL")
	suspHosts := fs.Int("suspicion-hosts", 12, "hosts for the suspicion-timeout sweep")
	suspCycles := fs.Int("suspicion-cycles", 6, "freeze/recover cycles per timeout for the suspicion sweep")
	suspBlip := fs.Duration("suspicion-blip", 50*time.Millisecond, "freeze duration per cycle for the suspicion sweep")
	suspTimeouts := fs.String("suspicion-timeouts", "10ms,25ms,50ms,100ms,250ms,500ms", "SuspicionTimeout values to sweep (comma-separated durations)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var csv strings.Builder
	doc := map[string]any{}
	figures := map[string]func() error{
		"7":          func() error { return fig7(out, &csv, doc) },
		"8":          func() error { return fig8(out, &csv, doc) },
		"9":          func() error { return fig9(out, &csv, doc) },
		"10":         func() error { return fig10(out, &csv, doc) },
		"clone":      func() error { return clone(out, &csv, doc, *rooms) },
		"churn":      func() error { return churn(out, &csv, doc, *spaces, *songBytes) },
		"flap":       func() error { return flap(out, &csv, doc, *spaces, *flapPeriod, *flapCycles) },
		"delta":      func() error { return delta(out, &csv, doc, *deltaTicks) },
		"durability": func() error { return durability(out, &csv, doc, *spaces, *durWrites) },
		"members":    func() error { return members(out, &csv, doc, *membersHosts) },
		"store": func() error {
			cfg := bench.StoreConfig{Records: *storeRecords, Writers: *storeWriters, Ops: *storeOps,
				ValueBytes: *storeValueBytes, BlobEvery: *storeBlobEvery, BlobBytes: *storeBlobBytes}
			return storeFig(out, &csv, doc, cfg, *storeCrashTrials, *storeCrashAfter)
		},
		"suspicion": func() error {
			return suspicion(out, &csv, doc, *suspHosts, *suspCycles, *suspBlip, *suspTimeouts)
		},
	}
	all := []string{"7", "8", "9", "10", "clone", "churn", "flap", "delta", "durability", "members", "store", "suspicion"}
	var order []string
	if *fig == "all" {
		order = all
	} else {
		for _, name := range strings.Split(*fig, ",") {
			name = strings.TrimSpace(name)
			if _, ok := figures[name]; !ok {
				return fmt.Errorf("unknown figure %q (want %s, or all)", name, strings.Join(all, ", "))
			}
			order = append(order, name)
		}
	}
	for _, name := range order {
		if err := figures[name](); err != nil {
			return fmt.Errorf("fig %s: %w", name, err)
		}
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Fprintf(out, "\nCSV written to %s\n", *csvPath)
	}
	if *jsonPath != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fmt.Errorf("encode json: %w", err)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("write json: %w", err)
		}
		fmt.Fprintf(out, "\nJSON written to %s\n", *jsonPath)
	}
	return nil
}

func fig7(out io.Writer, csv *strings.Builder, doc map[string]any) error {
	fmt.Fprintln(out, "== Fig. 7 — skew-canceling round-trip measurement ==")
	fmt.Fprintln(out, "   (hostB's clock runs 3s ahead of hostA's)")
	res, err := bench.RunFig7()
	if err != nil {
		return err
	}
	record(doc, "fig7", nil, res)
	fmt.Fprintf(out, "  injected clock offset:           %v\n", res.Skew)
	fmt.Fprintf(out, "  true round-trip migration time:  %v\n", res.TrueRTT)
	fmt.Fprintf(out, "  skew-canceled formula result:    %v  (error %v)\n",
		res.SkewCanceled, (res.SkewCanceled - res.TrueRTT).Abs())
	fmt.Fprintf(out, "  naive cross-clock one-way:       %v  (error %v — the offset)\n",
		res.NaiveOneWay, (res.NaiveOneWay - res.TrueOneWay).Abs())
	fmt.Fprintln(out)
	fmt.Fprintf(csv, "fig7,skew_ms,true_rtt_ms,formula_rtt_ms,naive_oneway_ms\n")
	fmt.Fprintf(csv, "fig7,%d,%d,%d,%d\n\n",
		res.Skew.Milliseconds(), res.TrueRTT.Milliseconds(),
		res.SkewCanceled.Milliseconds(), res.NaiveOneWay.Milliseconds())
	return nil
}

func sweepTable(out io.Writer, csv *strings.Builder, doc map[string]any, tag, title string, binding migrate.BindingMode) error {
	fmt.Fprintf(out, "== %s ==\n", title)
	points, err := bench.Sweep(binding)
	if err != nil {
		return err
	}
	record(doc, tag, map[string]any{"binding": fmt.Sprint(binding)}, points)
	fmt.Fprintf(out, "  %-6s %10s %10s %10s %10s %12s\n", "size", "suspend", "migrate", "resume", "total", "wrap-bytes")
	fmt.Fprintf(csv, "%s,size,suspend_ms,migrate_ms,resume_ms,total_ms,wrap_bytes\n", tag)
	for _, p := range points {
		fmt.Fprintf(out, "  %-6s %8dms %8dms %8dms %8dms %12d\n",
			p.Label, p.Suspend.Milliseconds(), p.Migrate.Milliseconds(),
			p.Resume.Milliseconds(), p.Total.Milliseconds(), p.Bytes)
		fmt.Fprintf(csv, "%s,%s,%d,%d,%d,%d,%d\n", tag, p.Label,
			p.Suspend.Milliseconds(), p.Migrate.Milliseconds(),
			p.Resume.Milliseconds(), p.Total.Milliseconds(), p.Bytes)
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	return nil
}

func fig8(out io.Writer, csv *strings.Builder, doc map[string]any) error {
	return sweepTable(out, csv, doc, "fig8", "Fig. 8 — adaptive component binding (this paper)", migrate.BindingAdaptive)
}

func fig9(out io.Writer, csv *strings.Builder, doc map[string]any) error {
	return sweepTable(out, csv, doc, "fig9", "Fig. 9 — static component binding (original design [7])", migrate.BindingStatic)
}

func fig10(out io.Writer, csv *strings.Builder, doc map[string]any) error {
	fmt.Fprintln(out, "== Fig. 10 — comparative total cost ==")
	rows, err := bench.RunFig10()
	if err != nil {
		return err
	}
	record(doc, "fig10", nil, rows)
	fmt.Fprintf(out, "  %-6s %14s %14s %10s\n", "size", "adaptive", "static", "ratio")
	fmt.Fprintf(csv, "fig10,size,adaptive_ms,static_ms,ratio\n")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-6s %12dms %12dms %9.1fx\n",
			r.Label, r.Adaptive.Milliseconds(), r.Static.Milliseconds(), r.Ratio)
		fmt.Fprintf(csv, "fig10,%s,%d,%d,%.2f\n", r.Label,
			r.Adaptive.Milliseconds(), r.Static.Milliseconds(), r.Ratio)
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	return nil
}

func clone(out io.Writer, csv *strings.Builder, doc map[string]any, rooms int) error {
	fmt.Fprintf(out, "== Demo 2 — clone-dispatch slideshow to %d overflow rooms ==\n", rooms)
	results, err := bench.RunCloneFanout(rooms, 3_000_000)
	if err != nil {
		return err
	}
	record(doc, "clone", map[string]any{"rooms": rooms, "slide_bytes": 3_000_000}, results)
	fmt.Fprintf(out, "  %-10s %10s %10s %12s %6s\n", "room", "clone", "bytes", "inter-space", "sync")
	fmt.Fprintf(csv, "clone,room,clone_ms,bytes,inter_space,sync_ms\n")
	for _, r := range results {
		fmt.Fprintf(out, "  %-10s %8dms %10d %12v %4dms\n",
			r.Room, r.Report.Total().Milliseconds(), r.Report.BytesMoved,
			r.InterSpace, r.SyncRTT.Milliseconds())
		fmt.Fprintf(csv, "clone,%s,%d,%d,%v,%d\n", r.Room,
			r.Report.Total().Milliseconds(), r.Report.BytesMoved,
			r.InterSpace, r.SyncRTT.Milliseconds())
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	return nil
}

func churn(out io.Writer, csv *strings.Builder, doc map[string]any, spaces int, songBytes int64) error {
	fmt.Fprintf(out, "== Churn — kill the app's host in a %d-space federation ==\n", spaces)
	fmt.Fprintln(out, "   (wall-clock protocol timings at a 2ms probe / 40ms suspicion cadence)")
	res, err := bench.RunChurnSized(spaces, bench.ChurnConfig(), songBytes)
	if err != nil {
		return err
	}
	record(doc, "churn", map[string]any{"spaces": spaces, "song_bytes": songBytes, "state": "off"}, res)
	fmt.Fprintf(out, "  gossip convergence (kill -> all survivors convict): %v\n", res.Convergence)
	fmt.Fprintf(out, "  failover (conviction -> app running on %s): %v\n", res.NewHost, res.Failover)
	fmt.Fprintf(out, "  total outage: %v (skeleton relaunch: in-flight state lost)\n", res.Total)

	sres, err := bench.RunChurnSized(spaces, bench.ChurnStateConfig(), songBytes)
	if err != nil {
		return err
	}
	record(doc, "churn_with_state", map[string]any{"spaces": spaces, "song_bytes": songBytes, "state": "on"}, sres)
	fmt.Fprintln(out, "  -- with snapshot-state replication (ReplicateState on) --")
	fmt.Fprintf(out, "  snapshot replication (state write -> every survivor center): %v\n", sres.Replication)
	fmt.Fprintf(out, "  record: %d bytes total, %d-delta chain; the planted state crossed as a %d-byte frame\n",
		sres.SnapshotBytes, sres.SnapshotDeltas, sres.DeltaBytes)
	fmt.Fprintf(out, "  failover with state (conviction -> app resumed on %s): %v\n", sres.NewHost, sres.Failover)
	fmt.Fprintf(out, "  total outage: %v, state intact: %v\n", sres.Total, sres.StateIntact)

	cres, err := bench.RunCleanStop(spaces, bench.ChurnStateConfig(), songBytes)
	if err != nil {
		return err
	}
	record(doc, "churn_clean_stop", map[string]any{"spaces": spaces, "song_bytes": songBytes}, cres)
	fmt.Fprintln(out, "  -- clean stop (final flush + intentional-leave broadcast) --")
	fmt.Fprintf(out, "  shutdown flush (SyncNow -> state on every survivor center): %v\n", cres.Flush)
	fmt.Fprintf(out, "  conviction (leave broadcast, no suspicion window): %v\n", cres.Conviction)
	fmt.Fprintf(out, "  failover (conviction -> app resumed on %s): %v\n", cres.NewHost, cres.Failover)
	fmt.Fprintf(out, "  total outage: %v, state intact: %v\n", cres.Total, cres.StateIntact)
	fmt.Fprintln(out)
	fmt.Fprintf(csv, "churn,spaces,state,convergence_ms,failover_ms,total_ms,replication_ms,snapshot_bytes,delta_bytes,chain,state_intact,new_host\n")
	fmt.Fprintf(csv, "churn,%d,off,%d,%d,%d,,,,,,%s\n", spaces,
		res.Convergence.Milliseconds(), res.Failover.Milliseconds(),
		res.Total.Milliseconds(), res.NewHost)
	fmt.Fprintf(csv, "churn,%d,on,%d,%d,%d,%d,%d,%d,%d,%v,%s\n", spaces,
		sres.Convergence.Milliseconds(), sres.Failover.Milliseconds(),
		sres.Total.Milliseconds(), sres.Replication.Milliseconds(),
		sres.SnapshotBytes, sres.DeltaBytes, sres.SnapshotDeltas, sres.StateIntact, sres.NewHost)
	fmt.Fprintf(csv, "churn,%d,clean-stop,%d,%d,%d,%d,,,,%v,%s\n\n", spaces,
		cres.Conviction.Milliseconds(), cres.Failover.Milliseconds(),
		cres.Total.Milliseconds(), cres.Flush.Milliseconds(), cres.StateIntact, cres.NewHost)
	return nil
}

func delta(out io.Writer, csv *strings.Builder, doc map[string]any, ticks int) error {
	fmt.Fprintln(out, "== Delta — replicated bytes per capture tick vs the full frame ==")
	fmt.Fprintf(out, "   (media player, one small playback write per tick, %d ticks per cell)\n", ticks)
	sizes := []int64{500_000, 2_000_000, 8_000_000}
	points, err := bench.RunDeltaSweep(sizes, ticks)
	if err != nil {
		return err
	}
	record(doc, "delta", map[string]any{"ticks": ticks, "song_bytes": sizes}, points)
	fmt.Fprintf(out, "  %-10s %12s %12s %7s %7s %7s %7s\n",
		"song", "base-bytes", "bytes/tick", "full", "delta", "idle0", "intact")
	fmt.Fprintf(csv, "delta,song_bytes,ticks,base_bytes,bytes_per_tick,full_frames,delta_frames,skipped_clean,state_intact\n")
	for _, p := range points {
		fmt.Fprintf(out, "  %-10d %12d %12d %7d %7d %7d %7v",
			p.SongBytes, p.BaseBytes, p.BytesPerTick,
			p.FullFrames, p.DeltaFrames, p.SkippedClean, p.StateIntact)
		// The base publish is one full frame: what every tick would ship
		// without the delta pipeline.
		if p.BytesPerTick > 0 {
			fmt.Fprintf(out, "  (%.0fx fewer bytes than a full frame)", float64(p.BaseBytes)/float64(p.BytesPerTick))
		}
		fmt.Fprintln(out)
		fmt.Fprintf(csv, "delta,%d,%d,%d,%d,%d,%d,%d,%v\n", p.SongBytes, p.Ticks,
			p.BaseBytes, p.BytesPerTick, p.FullFrames, p.DeltaFrames, p.SkippedClean, p.StateIntact)
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	return nil
}

func flap(out io.Writer, csv *strings.Builder, doc map[string]any, spaces int, period time.Duration, cycles int) error {
	fmt.Fprintf(out, "== Flap — toggle one link every %v for %d cycles in a %d-space federation ==\n",
		period, cycles, spaces)
	fmt.Fprintln(out, "   (indirect probes should mask a single flapping link: no false convictions)")
	res, err := bench.RunFlap(spaces, bench.ChurnConfig(), period, cycles)
	if err != nil {
		return err
	}
	record(doc, "flap", map[string]any{"spaces": spaces, "period_ms": period.Milliseconds(), "cycles": cycles}, res)
	fmt.Fprintf(out, "  false suspicions on the flapped pair: %d\n", res.Suspicions)
	fmt.Fprintf(out, "  false dead convictions: %d\n", res.Convictions)
	fmt.Fprintf(out, "  healed after schedule: %v (in %v)\n", res.Healed, res.HealTime)
	fmt.Fprintln(out)
	fmt.Fprintf(csv, "flap,spaces,period_ms,cycles,suspicions,convictions,healed,heal_ms\n")
	fmt.Fprintf(csv, "flap,%d,%d,%d,%d,%d,%v,%d\n\n", spaces, period.Milliseconds(), cycles,
		res.Suspicions, res.Convictions, res.Healed, res.HealTime.Milliseconds())
	return nil
}

func durability(out io.Writer, csv *strings.Builder, doc map[string]any, spaces, writes int) error {
	fmt.Fprintf(out, "== Durability — kill the writing center after %d writes per phase, per write concern ==\n", writes)
	fmt.Fprintln(out, "   (phase 1: healthy federation; phase 2: writer cut off, then killed before any retry)")
	fmt.Fprintln(out, "   silent loss = writes reported OK that no surviving center holds")
	concerns := []cluster.WriteConcern{cluster.WriteAsync, cluster.WriteOne, cluster.WriteQuorum}
	var results []bench.DurabilityResult
	fmt.Fprintf(out, "  %-8s %12s %12s %12s %8s %12s %10s\n",
		"concern", "write-lat", "snap-lat", "cutoff-lat", "flagged", "silent-loss", "lost-total")
	fmt.Fprintf(csv, "durability,concern,spaces,writes,write_lat_us,snap_lat_us,cutoff_lat_us,flagged,silent_loss,lost_total,durable\n")
	for _, wc := range concerns {
		res, err := bench.RunDurability(spaces, writes, wc)
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Fprintf(out, "  %-8s %10dµs %10dµs %10dµs %8d %12d %10d\n",
			res.Concern, res.HealthyLatency.Microseconds(), res.SnapLatency.Microseconds(),
			res.DegradedLatency.Microseconds(), res.Flagged, res.SilentLoss, res.LostTotal)
		fmt.Fprintf(csv, "durability,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			res.Concern, res.Spaces, res.Writes,
			res.HealthyLatency.Microseconds(), res.SnapLatency.Microseconds(),
			res.DegradedLatency.Microseconds(), res.Flagged, res.SilentLoss, res.LostTotal, res.Durable)
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	record(doc, "durability", map[string]any{"spaces": spaces, "writes": writes}, results)
	return nil
}

// parseHostCounts parses a comma-separated list of sweep sizes.
func parseHostCounts(spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad host count %q: %w", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func members(out io.Writer, csv *strings.Builder, doc map[string]any, hostsSpec string) error {
	hosts, err := parseHostCounts(hostsSpec)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Members — bounded gossip dissemination at scale ==")
	fmt.Fprintln(out, "   (synchronous protocol rounds over netsim; kill-wall includes the suspicion window)")
	fmt.Fprintf(out, "  %-6s %10s %9s %8s %12s %6s %6s %10s %6s\n",
		"hosts", "bytes/msg", "upd/msg", "B/host/s", "bootstrap", "join", "kill", "kill-wall", "false")
	fmt.Fprintf(csv, "members,hosts,bytes_per_msg,updates_per_msg,bytes_per_host_sec,bootstrap_rounds,join_rounds,kill_rounds,kill_wall_ms,false_suspects,false_convictions\n")
	var results []bench.MembersResult
	for _, n := range hosts {
		r, err := bench.RunMembers(n, bench.MembersConfig())
		if err != nil {
			return err
		}
		results = append(results, r)
		fmt.Fprintf(out, "  %-6d %10.0f %9.1f %8.0f %12d %6d %6d %8dms %6d\n",
			r.Hosts, r.BytesPerMsg, r.UpdatesPerMsg, r.BytesPerHostSec,
			r.BootstrapRounds, r.JoinRounds, r.KillRounds, r.KillWall.Milliseconds(),
			r.FalseSuspects+r.FalseConvictions)
		fmt.Fprintf(csv, "members,%d,%.1f,%.2f,%.1f,%d,%d,%d,%d,%d,%d\n",
			r.Hosts, r.BytesPerMsg, r.UpdatesPerMsg, r.BytesPerHostSec,
			r.BootstrapRounds, r.JoinRounds, r.KillRounds, r.KillWall.Milliseconds(),
			r.FalseSuspects, r.FalseConvictions)
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	record(doc, "members", map[string]any{"hosts": hosts}, results)
	return nil
}

func storeFig(out io.Writer, csv *strings.Builder, doc map[string]any, cfg bench.StoreConfig, crashTrials int, crashAfter time.Duration) error {
	fmt.Fprintf(out, "== Store — mixed registry/snapshot writes at %d resident records (%d writers, %d ops) ==\n",
		cfg.Records, cfg.Writers, cfg.Ops)
	mix := "record-only"
	if cfg.BlobEvery > 0 {
		mix = fmt.Sprintf("every %dth write a %dKB snapshot frame", cfg.BlobEvery, cfg.BlobBytes/1024)
	}
	fmt.Fprintf(out, "   (%dB records, %s; interval = fsync every %v)\n",
		cfg.ValueBytes, mix, store.DefaultSyncEvery)
	fmt.Fprintf(out, "  %-9s %14s %14s %10s %10s %12s\n",
		"sync", "load-w/s", "writes/sec", "p50", "p99", "disk-bytes")
	fmt.Fprintf(csv, "store,sync,records,writers,ops,load_writes_per_sec,writes_per_sec,p50_us,p99_us,blob_writes,disk_bytes\n")
	var results []bench.StoreResult
	for _, pol := range []store.SyncPolicy{store.SyncNever, store.SyncInterval, store.SyncAlways} {
		res, err := bench.RunStore(cfg, pol)
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Fprintf(out, "  %-9s %14.0f %14.0f %9dµs %9dµs %12d\n",
			res.Sync, res.LoadWritesPerSec, res.WritesPerSec,
			res.P50.Microseconds(), res.P99.Microseconds(), res.DiskBytes)
		fmt.Fprintf(csv, "store,%s,%d,%d,%d,%.0f,%.0f,%d,%d,%d,%d\n",
			res.Sync, res.Records, res.Writers, res.Ops,
			res.LoadWritesPerSec, res.WritesPerSec,
			res.P50.Microseconds(), res.P99.Microseconds(), res.BlobWrites, res.DiskBytes)
	}

	var crash bench.StoreCrashResult
	if crashTrials > 0 {
		var err error
		crash, err = bench.RunStoreCrash(crashTrials, crashAfter)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  kill-mid-commit audit (SyncPolicy=always, %d trials): %d acked, %d recovered, %d lost\n",
			crash.Trials, crash.Acked, crash.Recovered, crash.Lost)
		if crash.Lost > 0 {
			return fmt.Errorf("store crash audit: %d acknowledged writes lost", crash.Lost)
		}
		fmt.Fprintf(csv, "store_crash,trials,acked,recovered,lost\nstore_crash,%d,%d,%d,%d\n",
			crash.Trials, crash.Acked, crash.Recovered, crash.Lost)
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	record(doc, "store", map[string]any{
		"records": cfg.Records, "writers": cfg.Writers, "ops": cfg.Ops,
		"value_bytes": cfg.ValueBytes, "blob_every": cfg.BlobEvery, "blob_bytes": cfg.BlobBytes,
		"crash_trials": crashTrials,
	}, map[string]any{"rows": results, "crash": crash})
	return nil
}

func suspicion(out io.Writer, csv *strings.Builder, doc map[string]any, hosts, cycles int, blip time.Duration, timeoutsSpec string) error {
	var timeouts []time.Duration
	for _, tok := range strings.Split(timeoutsSpec, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad -suspicion-timeouts entry %q: %w", tok, err)
		}
		timeouts = append(timeouts, d)
	}
	fmt.Fprintf(out, "== Suspicion — detection latency vs false positives across SuspicionTimeout (%d hosts) ==\n", hosts)
	fmt.Fprintf(out, "   (per timeout: %d freeze/recover cycles of %v — any conviction is premature — then a real kill)\n",
		cycles, blip)
	points, err := bench.RunSuspicionSweep(hosts, cycles, blip, timeouts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  %-9s %10s %10s %12s %9s %12s\n",
		"timeout", "suspects", "convicts", "conv-cycles", "fp-rate", "detect-wall")
	fmt.Fprintf(csv, "suspicion,timeout_ms,hosts,cycles,blip_ms,false_suspects,false_convictions,convicted_cycles,fp_rate,detect_wall_ms\n")
	var recommended time.Duration
	for _, p := range points {
		fmt.Fprintf(out, "  %-9s %10d %10d %12d %9.2f %10dms\n",
			p.Timeout, p.FalseSuspects, p.FalseConvictions, p.ConvictedCycles,
			p.FalsePositiveRate, p.DetectWall.Milliseconds())
		fmt.Fprintf(csv, "suspicion,%d,%d,%d,%d,%d,%d,%d,%.3f,%d\n",
			p.Timeout.Milliseconds(), p.Hosts, p.Cycles, p.Blip.Milliseconds(),
			p.FalseSuspects, p.FalseConvictions, p.ConvictedCycles,
			p.FalsePositiveRate, p.DetectWall.Milliseconds())
		if recommended == 0 && p.ConvictedCycles == 0 {
			recommended = p.Timeout
		}
	}
	if recommended > 0 {
		fmt.Fprintf(out, "  -> smallest timeout with zero premature convictions at a %v freeze: %v (~%.0fx the freeze)\n",
			blip, recommended, float64(recommended)/float64(blip))
	} else {
		fmt.Fprintf(out, "  -> no swept timeout avoided premature convictions at a %v freeze; sweep longer timeouts\n", blip)
	}
	fmt.Fprintln(out)
	csv.WriteString("\n")
	record(doc, "suspicion", map[string]any{
		"hosts": hosts, "cycles": cycles, "blip_ms": blip.Milliseconds(), "timeouts": timeoutsSpec,
	}, points)
	return nil
}
