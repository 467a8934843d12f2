package main

import (
	"context"
	"fmt"
	"time"

	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/transport"
)

// checkEvery is how often, in operations, the operator asks the center
// where the application runs: cut-paste means exactly one host, ever.
const checkEvery = 50

// leg is one ctl.Migrate call as the operator saw it.
type leg struct {
	client time.Duration            // client-observed duration
	res    ctl.MigrateResult        // the daemon's own three-phase report
	phases map[string]time.Duration // five-phase spans, traced runs only
	starts map[string]time.Time     // their start times
}

// followme drives the paper's follow-me operation through the control
// plane: one operator, one application, hopping along a ring of hosts.
// With two hosts and adaptive binding that is the Fig. 7/8 round trip;
// with three and static binding every hop is cold, because the source's
// warm-handoff base always belongs to the host before last.
type followme struct {
	node   *transport.TCPNode
	rec    *recorder
	static bool
	perOp  int // hops per operation
	hosts  []string
	clis   []*ctl.Client
	center *ctl.Client
	cat    *registry.Client

	at   int   // index of the host running the application
	ops  int64 // operations started
	legs []leg
}

func newFollowme(dep *deployment, rec *recorder, static bool) (*followme, error) {
	node, err := transport.ListenTCP("bench-operator", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &followme{node: node, rec: rec, static: static, perOp: 2}
	if static {
		f.perOp = 1
	}
	centerName := cluster.CenterEndpointName(dep.centers[0].name)
	node.AddPeer(centerName, dep.centers[0].addr)
	f.center = ctl.NewClient(node.Endpoint(), centerName)
	f.cat = registry.NewClient(node.Endpoint(), centerName)
	for _, h := range dep.hosts {
		node.AddPeer(migrate.EndpointName(h.name), h.addr)
		node.AddPeer(migrate.MediaEndpointName(h.name), h.addr)
		f.hosts = append(f.hosts, h.name)
		f.clis = append(f.clis, ctl.NewClient(node.Endpoint(), migrate.EndpointName(h.name)))
	}
	return f, nil
}

func (f *followme) close() { f.node.Close() }

func (f *followme) workers() int { return 1 }

func (f *followme) op(ctx context.Context, _ int) (time.Duration, error) {
	f.ops++
	opSpan := f.rec.begin("op", -1, f.ops)
	defer f.rec.end(opSpan)
	var excluded time.Duration
	for i := 0; i < f.perOp; i++ {
		ex, err := f.hop(ctx, opSpan)
		excluded += ex
		if err != nil {
			return excluded, err
		}
	}
	if f.ops%checkEvery == 0 {
		t0 := time.Now()
		err := f.checkPlacement(ctx)
		excluded += time.Since(t0)
		if err != nil {
			return excluded, err
		}
	}
	return excluded, nil
}

// hop migrates the application to the next host of the ring and checks
// the daemon's report of it.
func (f *followme) hop(ctx context.Context, opSpan int) (time.Duration, error) {
	from, to := f.at, (f.at+1)%len(f.hosts)
	ctx, cancel := withTimeout(ctx)
	defer cancel()
	sp := f.rec.begin("ctl.Migrate", opSpan, f.ops)
	t0 := time.Now()
	res, err := f.clis[from].Migrate(ctx, ctl.MigrateRequest{App: appName, To: f.hosts[to], Static: f.static})
	l := leg{client: time.Since(t0), res: res}
	f.rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("migrate %s -> %s: %w", f.hosts[from], f.hosts[to], err)
	}
	f.at = to
	if res.From != f.hosts[from] || res.To != f.hosts[to] {
		return 0, fmt.Errorf("migrate %s -> %s reported %s -> %s", f.hosts[from], f.hosts[to], res.From, res.To)
	}
	if f.static && (res.Delta || res.BytesMoved < songBytes) {
		return 0, fmt.Errorf("static hop %s -> %s was not cold: delta=%v, %d bytes moved",
			f.hosts[from], f.hosts[to], res.Delta, res.BytesMoved)
	}
	var excluded time.Duration
	if sp >= 0 {
		// The source holds the complete five-phase timeline until the next
		// migration of the application touches its trace log.
		t1 := time.Now()
		tr, err := f.clis[from].Trace(ctx, appName)
		excluded = time.Since(t1)
		if err != nil {
			return excluded, fmt.Errorf("trace on %s: %w", f.hosts[from], err)
		}
		if !tr.Complete() {
			return excluded, fmt.Errorf("trace %s on %s misses a phase", tr.ID, f.hosts[from])
		}
		l.phases, l.starts = map[string]time.Duration{}, map[string]time.Time{}
		for _, s := range tr.Spans {
			l.phases[s.Phase], l.starts[s.Phase] = s.Dur, s.Start
		}
		// Restore and rebind run on the destination inside the transfer
		// request, so they nest under it and transfer's self time is the
		// wire, the envelope and the dispatch.
		var transfer int
		for _, ph := range []string{obs.PhaseSuspend, obs.PhaseCapture, obs.PhaseTransfer} {
			id := f.rec.add("migrate."+ph, l.starts[ph], l.phases[ph], sp, f.ops)
			if ph == obs.PhaseTransfer {
				transfer = id
			}
		}
		for _, ph := range []string{obs.PhaseRestore, obs.PhaseRebind} {
			f.rec.add("migrate."+ph, l.starts[ph], l.phases[ph], transfer, f.ops)
		}
	}
	f.legs = append(f.legs, l)
	return excluded, nil
}

// checkPlacement asks the center for the application's records and
// requires exactly one running instance, on the host the operator last
// sent it to.
func (f *followme) checkPlacement(ctx context.Context) error {
	ctx, cancel := withTimeout(ctx)
	defer cancel()
	apps, err := f.center.Apps(ctx)
	if err != nil {
		return fmt.Errorf("placement check: %w", err)
	}
	var running []string
	for _, a := range apps {
		if a.Name == appName && a.Running {
			running = append(running, a.Host)
		}
	}
	if len(running) != 1 || running[0] != f.hosts[f.at] {
		return fmt.Errorf("placement check: running on %v, want exactly [%s]", running, f.hosts[f.at])
	}
	return nil
}

// layer reports the ctl and migrate numbers of the hops made since the
// driver was created or last drained.
func (f *followme) layer(m metrics) {
	var overhead, suspend, mig, resume []time.Duration
	phases := map[string][]time.Duration{}
	var bytes, warm float64
	for _, l := range f.legs {
		overhead = append(overhead, l.client-l.res.Total())
		suspend = append(suspend, l.res.Suspend)
		mig = append(mig, l.res.Migrate)
		resume = append(resume, l.res.Resume)
		bytes += float64(l.res.BytesMoved)
		if l.res.Delta {
			warm++
		}
		for ph, d := range l.phases {
			phases[ph] = append(phases[ph], d)
		}
	}
	n := float64(len(f.legs))
	m.set("ctl.migrate_overhead_p50_ms", p50(overhead, time.Millisecond))
	m.set("migrate.suspend_p50_ms", p50(suspend, time.Millisecond))
	m.set("migrate.migrate_p50_ms", p50(mig, time.Millisecond))
	m.set("migrate.resume_p50_ms", p50(resume, time.Millisecond))
	for _, ph := range []string{obs.PhaseCapture, obs.PhaseTransfer, obs.PhaseRestore, obs.PhaseRebind} {
		m.set("migrate."+ph+"_p50_ms", p50(phases[ph], time.Millisecond))
	}
	m.set("migrate.bytes_moved_per_op", bytes/n*float64(f.perOp))
	m.set("migrate.warm_ratio", warm/n)
}

func (f *followme) drain() { f.legs = nil }

// probeN is how many requests a round-trip probe times.
const probeN = 300

// timeCalls runs call n times and returns each duration.
func timeCalls(n int, call func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := call(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// agentProbes times single requests against the live center and hostA:
// the registry and media round trips a migration plan is made of.
func (f *followme) agentProbes(ctx context.Context, m metrics) error {
	ep := f.node.Endpoint()
	song := media.GenerateFile("song1", songBytes, 3)
	res := demoapps.MusicResource(song, f.hosts[0])
	probeRec := registry.AppRecord{Name: "bench-probe", Host: "benchhost", Space: spaceName(0),
		Description: demoapps.MediaPlayerDesc(), Components: []string{"player-ui"}}
	probes := []struct {
		metric string
		call   func(context.Context) error
	}{
		{"registry.lookup_rtt_p50_us", func(ctx context.Context) error {
			_, found, err := f.cat.LookupApp(ctx, appName, f.hosts[0])
			if err == nil && !found {
				err = fmt.Errorf("no record of %s on %s", appName, f.hosts[0])
			}
			return err
		}},
		{"registry.register_rtt_p50_us", func(ctx context.Context) error {
			return f.cat.RegisterApp(ctx, probeRec)
		}},
		{"registry.plan_rebinding_rtt_p50_us", func(ctx context.Context) error {
			plan, err := f.cat.PlanRebinding(ctx, res, f.hosts[1], owl.MatchSemantic)
			if err == nil && plan.Action == owl.RebindImpossible {
				err = fmt.Errorf("song cannot be rebound at %s: %s", f.hosts[1], plan.Reason)
			}
			return err
		}},
		{"media.open_remote_p50_us", func(ctx context.Context) error {
			s, err := media.OpenRemote(ctx, ep, migrate.MediaEndpointName(f.hosts[0]), media.URL(f.hosts[0], song.Name))
			if err == nil && s.Size() != songBytes {
				err = fmt.Errorf("remote song is %d bytes, want %d", s.Size(), songBytes)
			}
			return err
		}},
	}
	for _, p := range probes {
		sp := f.rec.begin("probe."+p.metric, -1, 0)
		d, err := timeCalls(probeN, func() error {
			ctx, cancel := withTimeout(ctx)
			defer cancel()
			return p.call(ctx)
		})
		f.rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		m.set(p.metric, p50(d, time.Microsecond))
	}
	return nil
}

// infoRTT times the smallest control-plane request against one daemon:
// the cross-process floor under every ctl operation.
func infoRTT(ctx context.Context, cli *ctl.Client, rec *recorder, m metrics) error {
	sp := rec.begin("probe.ctl.info_rtt_p50_us", -1, 0)
	d, err := timeCalls(probeN, func() error {
		ctx, cancel := withTimeout(ctx)
		defer cancel()
		_, err := cli.Info(ctx)
		return err
	})
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("ctl info: %w", err)
	}
	m.set("ctl.info_rtt_p50_us", p50(d, time.Microsecond))
	return nil
}
