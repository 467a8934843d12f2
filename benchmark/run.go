package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// setupRepeats is how many fresh deployments a run with tracing off
// brings up: setup_s is the median of them, and the last one is measured.
const setupRepeats = 3

// bench is a workload opened on a fresh deployment.
type bench interface {
	driver
	// warmOps is the number of operations each worker runs before the
	// measured window; they are part of set-up.
	warmOps() int
	// beginTraced marks where the traced window starts.
	beginTraced(ctx context.Context) error
	// layers reports the per-layer metrics of the layers on this
	// workload's path over the traced window, then fills in what short
	// passes on the same deployment can measure.
	layers(ctx context.Context, traced windowResult, m metrics) error
	// finish stops background traffic, runs the end-of-run correctness
	// checks and returns the tally of operations outside the main loop.
	finish(ctx context.Context) (windowResult, error)
	close()
}

// workloadDef is a workload's deployment and how to open it.
type workloadDef struct {
	shape shape
	open  func(ctx context.Context, dep *deployment, rec *recorder, seed int64) (bench, error)
	// budget lists the independently measured layer times on the op's
	// blocking path, in ms, given the run's per-layer metrics.
	budget func(m metrics) float64
}

var workloads = map[string]workloadDef{
	wlRoundtrip: {
		shape:  shape{centers: 1, hosts: 2},
		open:   openFollowme(false),
		budget: func(m metrics) float64 { return 2 * legBudget(m) },
	},
	wlStaticCold: {
		shape:  shape{centers: 1, hosts: 3},
		open:   openFollowme(true),
		budget: legBudget,
	},
	wlQuorum: {
		shape: shape{centers: 3},
		open:  openQuorum,
		budget: func(m metrics) float64 {
			return (m["state.capture_self_p50_us"] + m["cluster.put_async_p50_us"] + m["cluster.fed_ack_wait_mean_us"]) / 1e3
		},
	},
	wlRestore: {
		shape: shape{centers: 3},
		open:  openRestore,
		budget: func(m metrics) float64 {
			return (2*m["ctl.info_rtt_p50_us"] + m["state.reassemble_p50_us"]) / 1e3
		},
	},
}

// legBudget is one migration leg: the control-plane request floor plus
// the daemon's own three-phase report.
func legBudget(m metrics) float64 {
	return m["ctl.info_rtt_p50_us"]/1e3 + m["migrate.suspend_p50_ms"] + m["migrate.migrate_p50_ms"] + m["migrate.resume_p50_ms"]
}

// runner holds what every run of this process shares.
type runner struct {
	d   dirs
	log io.Writer
}

// outcome is one run's result in the shape the driver's contract prints.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	notes     []string
}

func (o *outcome) tally(r windowResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	for _, e := range r.errs {
		o.notes = append(o.notes, "failed: "+e)
	}
}

// setUp brings up a fresh deployment of the workload, preloads it and
// warms it up. The duration covers all of that: it is setup_s.
func (r *runner) setUp(ctx context.Context, name string, rec *recorder, seed int64) (*deployment, bench, time.Duration, error) {
	def := workloads[name]
	start := time.Now()
	dep, err := deploy(r.d, name, def.shape)
	if err != nil {
		return nil, nil, 0, err
	}
	b, err := def.open(ctx, dep, rec, seed)
	if err == nil {
		if warm := runOps(ctx, b, b.warmOps()); warm.failed > 0 {
			err = fmt.Errorf("warm-up: %w", warm.failure())
			b.close()
		}
	}
	if err != nil {
		dep.dumpLogs()
		dep.close()
		return nil, nil, 0, fmt.Errorf("%s set-up: %w", name, err)
	}
	return dep, b, time.Since(start), nil
}

// endToEnd is a run with tracing off: the end-to-end metrics.
func (r *runner) endToEnd(ctx context.Context, name string, seed int64, window time.Duration) (outcome, error) {
	var (
		out    = outcome{metrics: metrics{}}
		setups []float64
		dep    *deployment
		b      bench
	)
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			b.close()
			dep.close()
		}
		var took time.Duration
		var err error
		if dep, b, took, err = r.setUp(ctx, name, nil, seed); err != nil {
			return out, err
		}
		setups = append(setups, took.Seconds())
	}
	defer dep.close()
	defer b.close()

	res, err := runFor(ctx, b, dep, window)
	if err != nil {
		dep.dumpLogs()
		return out, err
	}
	out.tally(res)
	extra, ferr := b.finish(ctx)
	out.tally(extra)
	if ferr != nil {
		out.notes = append(out.notes, "check failed: "+ferr.Error())
	}
	out.correct = ferr == nil && out.failed == 0
	if !out.correct {
		dep.dumpLogs()
	}
	if len(res.samples) == 0 {
		return out, fmt.Errorf("%s: no operation completed: %v", name, res.errs)
	}
	f := summarize(res.samples, res.window)
	out.metrics["setup_s"] = median(setups)
	out.metrics["op_p50_ms"] = f.p50ms
	out.metrics["op_p95_ms"] = f.p95ms
	out.metrics["ops_per_s"] = f.opsPerSec
	out.metrics["cpu_ms_per_op"] = cpuPerOp(res, f.perSlice)
	fmt.Fprintf(r.log, "# %s seed %d: window %v in %d slices of %v ops, set-ups %.3v s\n",
		name, seed, window, subWindows, f.perSlice, setups)
	return out, nil
}

// traced is a run with tracing on: the per-layer metrics. A quarter of
// the time goes to an untraced reference window on the same deployment,
// half to the traced window; probe passes take the rest.
func (r *runner) traced(ctx context.Context, name string, seed int64, window time.Duration) (outcome, error) {
	out := outcome{metrics: metrics{}}
	m := out.metrics
	rec := newRecorder()
	dep, b, _, err := r.setUp(ctx, name, rec, seed)
	if err != nil {
		return out, err
	}
	closed := false
	closeMain := func() {
		if !closed {
			b.close()
			dep.close()
			closed = true
		}
	}
	defer closeMain()
	fail := func(err error) (outcome, error) {
		dep.dumpLogs()
		return out, fmt.Errorf("%s traced run: %w", name, err)
	}

	ref, err := runFor(ctx, b, dep, window/4)
	if err != nil {
		return fail(err)
	}
	out.tally(ref)
	rec.enable(true)
	if err := b.beginTraced(ctx); err != nil {
		return fail(err)
	}
	tr, err := runFor(ctx, b, dep, window/2)
	if err != nil {
		return fail(err)
	}
	out.tally(tr)
	if len(ref.samples) == 0 || len(tr.samples) == 0 {
		return fail(fmt.Errorf("no operation completed: %v %v", ref.errs, tr.errs))
	}
	if err := b.layers(ctx, tr, m); err != nil {
		return fail(err)
	}

	ops := float64(len(tr.samples))
	first, last := tr.roles[0], tr.roles[len(tr.roles)-1]
	procLayer(first, last, ops, m)
	lats := make([]float64, 0, len(tr.samples))
	for _, s := range tr.samples {
		lats = append(lats, float64(s.lat)/float64(time.Millisecond))
	}
	sort.Float64s(lats)
	top := topPercentile(len(lats))
	m.set("e2e.op_top_pctl", top*100)
	m.set("e2e.op_top_ms", percentile(lats, top))
	tracedP50 := summarize(tr.samples, tr.window).p50ms
	m.set("trace.overhead_frac", tracedP50/summarize(ref.samples, ref.window).p50ms-1)

	extra, ferr := b.finish(ctx)
	out.tally(extra)
	if ferr != nil {
		out.notes = append(out.notes, "check failed: "+ferr.Error())
		dep.dumpLogs()
	}
	closeMain()

	// Layers this workload's deployment does not have are measured on a
	// small deployment of the other kind, so that every run reports the
	// same rows.
	if err := r.sideAgents(ctx, rec, m); err != nil {
		return out, fmt.Errorf("%s traced run: %w", name, err)
	}
	if err := r.sideSessions(ctx, rec, seed, m); err != nil {
		return out, fmt.Errorf("%s traced run: %w", name, err)
	}
	if err := transportProbe(ctx, rec, m); err != nil {
		return out, err
	}
	if err := stateProbe(rec, m); err != nil {
		return out, err
	}
	if err := storeProbe(r.d, rec, m); err != nil {
		return out, err
	}

	m.set("e2e.failed_ops_ratio", float64(out.failed)/float64(out.attempted))
	explained := workloads[name].budget(m)
	m.set("budget.explained_frac", explained/tracedP50)
	m.set("budget.unexplained_ms", tracedP50-explained)
	if miss := m.missing(perLayer); len(miss) > 0 {
		return out, fmt.Errorf("%s traced run: metrics not measured: %v", name, miss)
	}
	path, err := writeSpans(r.d, name, rec.since(0))
	if err != nil {
		return out, err
	}
	out.correct = ferr == nil && out.failed == 0
	fmt.Fprintf(r.log, "# %s seed %d: reference window %v (%d ops), traced window %v (%d ops), spans in %s\n",
		name, seed, ref.window, len(ref.samples), tr.window, len(tr.samples), path)
	return out, nil
}

// procLayer splits CPU, write system calls and written bytes by process
// role over a pass of ops operations.
func procLayer(before, after roleSample, ops float64, m metrics) {
	for _, role := range []string{roleAgent, roleCenter, roleBench} {
		b, ok := before[role]
		if !ok {
			continue
		}
		a := after[role]
		m.set("proc."+role+"_cpu_ms_per_op", (a.cpuMs-b.cpuMs)/ops)
		if role == roleBench {
			continue
		}
		m.set("proc."+role+"_write_syscalls_per_op", float64(a.writeSys-b.writeSys)/ops)
		m.set("proc."+role+"_wchar_per_op", float64(a.wchar-b.wchar)/ops)
		m.set("proc."+role+"_rss_peak_mb", float64(a.rssPeakKB)/1024)
	}
}

// Sizes of the passes that measure layers off the workload's own path.
const (
	sideRoundTrips   = 12
	sideQuorumWrites = 150 // per writer
	sideRestoreReads = 200
)

// sideAgents measures the control-plane, migration, registry and media
// layers on a one-center, two-host deployment when the workload has no
// hosts of its own. It sets nothing a followme workload already reported.
func (r *runner) sideAgents(ctx context.Context, rec *recorder, m metrics) error {
	if _, have := m["migrate.suspend_p50_ms"]; have {
		return nil
	}
	dep, err := deploy(r.d, "side-agents", shape{centers: 1, hosts: 2})
	if err != nil {
		return err
	}
	defer dep.close()
	f, err := newFollowme(dep, rec, false)
	if err != nil {
		return err
	}
	defer f.close()
	err = func() error {
		rec.enable(false)
		if warm := runOps(ctx, f, 3); warm.failed > 0 {
			return warm.failure()
		}
		rec.enable(true)
		f.drain()
		before, err := sampleRoles(dep)
		if err != nil {
			return err
		}
		if res := runOps(ctx, f, sideRoundTrips); res.failed > 0 {
			return res.failure()
		}
		after, err := sampleRoles(dep)
		if err != nil {
			return err
		}
		f.layer(m)
		procLayer(before, after, sideRoundTrips, m)
		return f.agentProbes(ctx, m)
	}()
	if err != nil {
		dep.dumpLogs()
		return fmt.Errorf("side deployment of hosts: %w", err)
	}
	return nil
}

// sideSessions measures the state, cluster, store, kernel and watch
// layers on a three-center deployment when the workload has one center.
func (r *runner) sideSessions(ctx context.Context, rec *recorder, seed int64, m metrics) error {
	if _, have := m["cluster.fed_ack_p50_us"]; have {
		return nil
	}
	dep, err := deploy(r.d, "side-sessions", shape{centers: 3})
	if err != nil {
		return err
	}
	defer dep.close()
	rec.enable(false)
	s, err := newSessions(dep, rec, seed)
	if err != nil {
		dep.dumpLogs()
		return err
	}
	defer s.close()
	err = func() error {
		if err := s.preload(ctx, restoreChain); err != nil {
			return err
		}
		rec.enable(true)
		if err := s.restorePass(ctx, m); err != nil {
			return err
		}
		if err := s.quorumPass(ctx, m); err != nil {
			return err
		}
		return s.putProbes(ctx, m)
	}()
	if err != nil {
		dep.dumpLogs()
		return fmt.Errorf("side deployment of centers: %w", err)
	}
	return nil
}
