package migrate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/media"
	"mdagent/internal/netsim"
	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/space"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// Transport message types served by migration engines.
const (
	MsgCheckin = "migrate.checkin" // follow-me arrival
	MsgClone   = "migrate.clone"   // clone-dispatch arrival
	MsgSync    = "migrate.sync"    // synchronization-link state change
)

// EndpointName returns the conventional engine endpoint name for a host.
func EndpointName(host string) string { return "migrate@" + host }

// MediaEndpointName returns the conventional media server endpoint name.
func MediaEndpointName(host string) string { return "media@" + host }

// Catalog is the registry view the engine needs: *registry.Client over
// the wire, or a registry center (cluster.Center) in-process. A follow-me
// asks it twice: PlanMove at the source, MoveApp — the migration's commit
// point — at the destination.
type Catalog interface {
	PlanMove(ctx context.Context, appName, destHost string, resources []owl.Resource, mode owl.MatchMode) (registry.MovePlan, error)
	MoveApp(ctx context.Context, rec registry.AppRecord, from string) (bool, error)
	LookupApp(ctx context.Context, name, host string) (registry.AppRecord, bool, error)
	RegisterApp(ctx context.Context, rec registry.AppRecord) error
	UnregisterApp(ctx context.Context, name, host string) error
}

var _ Catalog = (*registry.Client)(nil)

// Engine is one host's migration engine. It holds the running application
// instances, the installed application factories (what "the application
// exists at the destination" means), and serves checkin/clone/sync
// messages from peer engines.
type Engine struct {
	host  string
	dev   wsdl.DeviceProfile // what arrivals adapt to; zero: no adaptation
	net   *netsim.Network
	dir   *space.Directory
	ep    *transport.Endpoint
	cat   Catalog
	costs CostProfile

	mu        sync.Mutex
	apps      map[string]*app.Application
	factories map[string]func(host string) *app.Application
	bases     map[string]*baseEntry // app -> last full wrap exchanged with a peer

	// mPhase holds one wall-clock duration histogram per migration phase
	// (obs.PhaseSuspend..obs.PhaseRebind), pinned at construction.
	mPhase map[string]*obs.Histogram
}

// baseEntry is one application's cached migration base: the last full
// wrap this engine sent to or received from a peer. It serves two roles
// in the warm-handoff path — as the reassembly base when a delta
// checkin arrives (matched by digest), and as the diff baseline when
// this engine sends the application back to the peer that shares it
// (matched by peer + live instance counters). The wrap is held by
// reference: it shares its component bytes with the frame or snapshot
// it came from (captured bytes are immutable, see app.Component). It
// carries its component digests: only a warm hand-off reads them, so a
// cold hop — the only kind a static ring of three hosts ever makes —
// hashes nothing, and a warm one hashes a base once and then only the
// components each hop changes. An entry is replaced, never changed, so a
// failed hop leaves the old base usable.
type baseEntry struct {
	wrap *state.DigestedWrap
	peer string // host on the other end of the exchange
	// inst/changeSeq track the live local instance the base was unwrapped
	// into (arrival entries only): components mutated past changeSeq are
	// exactly what a send-back delta must carry. nil after a send.
	inst      *app.Application
	changeSeq uint64
}

// needFullWrap is the in-band signal a destination returns when it
// cannot reassemble a delta checkin (no base, or the wrong one); the
// source retries with a full wrap. Matched by substring: transport
// errors cross process boundaries as strings.
const needFullWrap = "migrate: need full wrap"

// NewEngine creates an engine for host, serving on ep. dev is the host's
// device profile — the one it registers — which every arrival adapts to;
// a zero profile means none, and arrivals are not adapted. dir may be nil
// (no space topology checks); net may be nil (no CPU cost charging).
func NewEngine(host string, dev wsdl.DeviceProfile, ep *transport.Endpoint, net *netsim.Network, dir *space.Directory, cat Catalog, costs CostProfile) *Engine {
	e := &Engine{
		host:      host,
		dev:       dev,
		net:       net,
		dir:       dir,
		ep:        ep,
		cat:       cat,
		costs:     costs,
		apps:      make(map[string]*app.Application),
		factories: make(map[string]func(host string) *app.Application),
		bases:     make(map[string]*baseEntry),
		mPhase:    make(map[string]*obs.Histogram, 5),
	}
	for _, ph := range []string{obs.PhaseSuspend, obs.PhaseCapture, obs.PhaseTransfer, obs.PhaseRestore, obs.PhaseRebind} {
		e.mPhase[ph] = obs.Default.Histogram("mdagent_migrate_phase_ns", "host", host, "phase", ph)
	}
	ep.Handle(MsgCheckin, e.handleCheckin)
	ep.Handle(MsgClone, e.handleClone)
	ep.Handle(MsgSync, e.handleSync)
	return e
}

// Host returns the engine's host id.
func (e *Engine) Host() string { return e.host }

// Run registers a running application instance with the engine.
func (e *Engine) Run(a *app.Application) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.apps[a.Name()]; dup {
		return fmt.Errorf("migrate: app %q already running on %s", a.Name(), e.host)
	}
	e.apps[a.Name()] = a
	return nil
}

// App returns a running instance by name.
func (e *Engine) App(name string) (*app.Application, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.apps[name]
	return a, ok
}

// Apps returns every running instance, sorted by name — the state
// replicator's capture set.
func (e *Engine) Apps() []*app.Application {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*app.Application, 0, len(e.apps))
	for _, a := range e.apps {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Remove unregisters a running instance without suspending it (graceful
// stop and administrative teardown), returning the instance if present.
func (e *Engine) Remove(name string) (*app.Application, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.apps[name]
	if ok {
		delete(e.apps, name)
	}
	return a, ok
}

// InstallFactory provisions an application skeleton factory — the local
// installation an arriving state-only wrap restores into.
func (e *Engine) InstallFactory(appName string, f func(host string) *app.Application) {
	e.mu.Lock()
	e.factories[appName] = f
	e.mu.Unlock()
}

// Factory returns the installed skeleton factory for an app, if any —
// cluster failover uses it to relaunch a dead host's application here.
func (e *Engine) Factory(appName string) (func(host string) *app.Application, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.factories[appName]
	return f, ok
}

// clock returns the engine host's (possibly skewed) clock.
func (e *Engine) clock() vclock.Clock {
	if e.net != nil {
		if h, ok := e.net.Host(e.host); ok {
			return h.Clock()
		}
	}
	return &vclock.Real{}
}

// traceClock is the clock migration spans are recorded on: the network's
// reference clock when the engine runs on a simulated network — every
// simulated host reads it unskewed, so the phases of both hosts order on
// one axis, and on a virtual clock a span is simulated time, so the
// check-in reply that carries the destination's spans has the same
// bytes on every run — and the wall clock otherwise.
func (e *Engine) traceClock() vclock.Clock {
	if e.net != nil {
		return e.net.Clock()
	}
	return &vclock.Real{}
}

func (e *Engine) charge(d time.Duration) {
	if e.net != nil {
		e.net.Clock().Charge(d)
	}
}

func (e *Engine) chargeSerialize(bytes int64) {
	if e.net == nil {
		return
	}
	if h, ok := e.net.Host(e.host); ok {
		e.net.ChargeSerialize(h, bytes)
	}
}

func (e *Engine) chargeDeserialize(bytes int64) {
	if e.net == nil {
		return
	}
	if h, ok := e.net.Host(e.host); ok {
		e.net.ChargeDeserialize(h, bytes)
	}
}

// planComponents decides which components the MA wraps and how each data
// resource rebinds — the autonomous-agent decision of §4.1 ("AA decides
// whether to transfer the states only or the interface only or other
// possible component combinations").
func (e *Engine) planComponents(ctx context.Context, a *app.Application, destHost string, binding BindingMode, match owl.MatchMode) ([]string, []owl.Rebinding, error) {
	if binding == BindingStatic {
		// Original design [7]: everything moves, no rebinding plans.
		return a.Components(), nil, nil
	}
	resources := a.Resources()
	mp, err := e.cat.PlanMove(ctx, a.Name(), destHost, resources, match)
	if err != nil {
		return nil, nil, fmt.Errorf("migrate: move plan: %w", err)
	}
	if len(mp.Rebindings) != len(resources) {
		return nil, nil, fmt.Errorf("migrate: move plan holds %d rebindings for %d resources", len(mp.Rebindings), len(resources))
	}
	carried := a.ComponentsOfKind(app.KindState)
	destRec, found := mp.Dest, mp.DestFound
	for _, kind := range []app.ComponentKind{app.KindLogic, app.KindUI} {
		for _, name := range a.ComponentsOfKind(kind) {
			if !found || !destRec.HasComponent(name) {
				carried = append(carried, name)
			}
		}
	}
	var plans []owl.Rebinding
	covered := make(map[string]bool)
	for i, res := range resources {
		plan := mp.Rebindings[i]
		if plan.Action == owl.RebindImpossible {
			return nil, nil, fmt.Errorf("migrate: resource %s cannot be rebound at %s: %s", res.ID, destHost, plan.Reason)
		}
		comp := dataComponentFor(res)
		covered[comp] = true
		if plan.Action == owl.RebindCarry {
			// Carry the matching data component when the app holds one.
			if _, ok := a.Component(comp); ok {
				carried = append(carried, comp)
			}
		}
		plans = append(plans, plan)
	}
	// Data components with no resource description default to traveling
	// with the application: there is nothing to rebind them to.
	for _, name := range a.ComponentsOfKind(app.KindData) {
		if !covered[name] && (!found || !destRec.HasComponent(name)) {
			carried = append(carried, name)
		}
	}
	return carried, plans, nil
}

// dataComponentFor names the data component a resource corresponds to:
// the "component" attribute when present, else the resource id.
func dataComponentFor(res owl.Resource) string {
	if c, ok := res.Attrs["component"]; ok {
		return c
	}
	return res.ID
}

// FollowMe migrates a running application to destHost (cut-paste). On
// failure the application is rolled back and resumed at the source.
func (e *Engine) FollowMe(ctx context.Context, appName, destHost string, binding BindingMode, match owl.MatchMode) (Report, error) {
	var rep Report
	e.mu.Lock()
	a, ok := e.apps[appName]
	e.mu.Unlock()
	if !ok {
		return rep, fmt.Errorf("migrate: no running app %q on %s", appName, e.host)
	}
	if destHost == e.host {
		return rep, fmt.Errorf("migrate: %q is already on %s", appName, e.host)
	}
	interSpace := false
	if e.dir != nil {
		crosses, possible, err := e.dir.CrossesSpaces(e.host, destHost)
		if err != nil {
			return rep, err
		}
		if crosses && !possible {
			return rep, fmt.Errorf("migrate: no gateway path from %s to %s (paper Fig. 1: inter-space requires gateways)", e.host, destHost)
		}
		interSpace = crosses
	}
	clk := e.clock()

	// Cross-host migration trace. Spans use the trace clock, not the
	// engine's (possibly skewed) host clock: the five phases land on two
	// hosts and must order on one axis.
	tc := e.traceClock()
	traceID := obs.Traces.Begin(appName, e.host, destHost)
	span := func(phase string, start time.Time, note string) {
		d := tc.Now().Sub(start)
		obs.Traces.Record(obs.Span{Trace: traceID, App: appName, Phase: phase,
			Host: e.host, Start: start, Dur: d, Note: note})
		e.mPhase[phase].Observe(d)
	}

	// --- Suspension phase (timed on the source host clock). ---
	// The autonomous agent may already have suspended the app when the
	// user left the room (paper §4.3); suspension is then a no-op here.
	suspendBegin := tc.Now()
	suspendStart := clk.Now()
	if a.State() == app.Running {
		if err := a.Suspend(); err != nil {
			return rep, err
		}
	}
	rollback := func() {
		_ = a.Resume()
	}
	// The one capture of this migration: the rollback point, and — as
	// views sharing its bytes — whatever the transfer carries.
	ts, err := a.Snapshots().Record("pre-migrate", clk.Now())
	if err != nil {
		rollback()
		return rep, err
	}
	span(obs.PhaseSuspend, suspendBegin, "")
	captureBegin := tc.Now()
	planned, plans, err := e.planComponents(ctx, a, destHost, binding, match)
	if err != nil {
		rollback()
		return rep, err
	}
	carried := planned

	// Warm handoff: when the destination still holds the full wrap this
	// instance last exchanged with it (follow-me ping-pong chasing a user
	// between two hosts), ship only the components mutated since — the
	// dirty counters enumerate them, so nothing else is even serialized.
	var (
		enc      []byte   // check-in body: head, then the state frame
		frameLen int      // bytes of enc that are the state frame
		wrap     app.Wrap // full wrap (cold path / fallback)
		delta    state.WrapDelta
		warm     bool
	)
	head := checkinPayload{
		App: appName, Mode: FollowMe, Binding: binding,
		FromHost: e.host, FromEngine: e.ep.Name(), TraceID: traceID, Budget: budgetOf(ctx),
		Desc: a.Description(), Rebindings: plans,
	}
	// Warm only when the plan would carry every component anyway (static
	// binding, or an adaptive plan that found nothing at the
	// destination): the delta reassembles the destination's FULL state,
	// which must mean the same thing the planned transfer would have —
	// an adaptive plan that elides components (use-local installs,
	// remote-URL data) must take the cold path or the cache temperature
	// would change what lands at the destination.
	e.mu.Lock()
	warmBase := e.bases[appName]
	e.mu.Unlock()
	if warmBase != nil && warmBase.peer == destHost && warmBase.inst == a && a.FullyTracked() &&
		len(planned) == len(a.Components()) {
		changed := a.ChangedSince(warmBase.changeSeq)
		if changed == nil {
			changed = []string{} // coordinator/profile-only drift
		}
		dw, werr := ts.Wrap.View(changed)
		if werr != nil {
			rollback()
			return rep, werr
		}
		delta = state.WrapDelta{
			App: appName, FromHost: e.host, BaseDigest: warmBase.wrap.Digest(),
			Components: dw.Components, Kinds: dw.Kinds,
			CoordState: dw.CoordState, Profile: dw.Profile,
		}
		raw, werr := state.EncodeDelta(delta)
		if werr != nil {
			rollback()
			return rep, werr
		}
		head.Delta = true
		enc, frameLen, _ = encodeCheckin(&head, func(h []byte) ([]byte, error) { return slices.Concat(h, raw), nil })
		e.chargeSerialize(delta.TotalBytes())
		carried = changed
		warm = true
	}
	buildFull := func() error {
		carried, warm, head.Delta = planned, false, false
		var werr error
		if wrap, werr = ts.Wrap.View(planned); werr != nil {
			return werr
		}
		if enc, frameLen, werr = encodeCheckin(&head, func(h []byte) ([]byte, error) { return state.AppendWrap(h, wrap) }); werr != nil {
			return werr
		}
		e.chargeSerialize(wrap.TotalBytes())
		return nil
	}
	if !warm {
		if err := buildFull(); err != nil {
			rollback()
			return rep, err
		}
	}
	e.charge(e.costs.CheckoutOverhead)
	// Check out: the instance leaves this host now (paper Fig. 4); it is
	// restored from the snapshot if check-in fails. This ordering keeps
	// cut-paste semantics exact — the app is never visible on two hosts.
	e.mu.Lock()
	delete(e.apps, appName)
	e.mu.Unlock()
	checkinFailed := func() {
		e.mu.Lock()
		e.apps[appName] = a
		e.mu.Unlock()
	}
	suspendDur := clk.Now().Sub(suspendStart)
	span(obs.PhaseCapture, captureBegin, fmt.Sprintf("bytes=%d warm=%v", frameLen, warm))

	// --- Migration phase. ---
	transferBegin := tc.Now()
	migrateStart := clk.Now()
	e.charge(e.costs.TransferOverhead)
	reply, err := e.requestCheckin(ctx, destHost, MsgCheckin, enc)
	if err != nil && warm && strings.Contains(err.Error(), needFullWrap) {
		// The destination lost (or never had) our base: degrade to a cold
		// full-wrap checkin in the same migration.
		if ferr := buildFull(); ferr != nil {
			checkinFailed()
			rollback()
			return rep, ferr
		}
		reply, err = e.requestCheckin(ctx, destHost, MsgCheckin, enc)
	}
	if err != nil {
		// Check-in failed: restore from the pre-migration snapshot and
		// resume locally (the fault-tolerance role of snapshot management).
		checkinFailed()
		if rerr := a.Snapshots().Rollback("pre-migrate"); rerr != nil {
			return rep, fmt.Errorf("migrate: checkin failed (%v) and rollback failed: %w", err, rerr)
		}
		rollback()
		return rep, fmt.Errorf("migrate: checkin at %s: %w", destHost, err)
	}
	span(obs.PhaseTransfer, transferBegin, fmt.Sprintf("bytes=%d", frameLen))
	// Merge the destination's restore/rebind spans so this host's trace
	// log holds the complete five-phase, two-host timeline.
	for _, sp := range reply.Spans {
		obs.Traces.Record(sp)
	}
	// The handoff landed: remember what the destination now holds, so a
	// future follow-me back can go warm. A delta advanced the shared base
	// in place; a full wrap covering every component becomes the new
	// base; a partial wrap leaves the destination's exact state unknown.
	if warm {
		if newBase, aerr := warmBase.wrap.Apply(delta); aerr == nil {
			e.mu.Lock()
			e.bases[appName] = &baseEntry{wrap: newBase, peer: destHost}
			e.mu.Unlock()
		}
	} else if wrapCovers(wrap, a) {
		e.mu.Lock()
		e.bases[appName] = &baseEntry{wrap: state.NewDigestedWrap(wrap), peer: destHost}
		e.mu.Unlock()
	} else {
		e.mu.Lock()
		delete(e.bases, appName)
		e.mu.Unlock()
	}
	resumeDur := time.Duration(reply.ResumeNanos)
	migrateDur := clk.Now().Sub(migrateStart) - resumeDur
	if migrateDur < 0 {
		migrateDur = 0
	}

	// The destination's commit demoted this host's record, unless its
	// center does not own it (the hosts register with different federated
	// centers): then this host demotes it, so failover never resurrects a
	// departed app from it.
	var demoteNote []string
	if !reply.SourceDemoted {
		demoteNote = e.demoteSource(appName)
	}

	return Report{
		App: appName, Mode: FollowMe, Binding: binding,
		FromHost: e.host, ToHost: destHost, InterSpace: interSpace,
		Suspend: suspendDur, Migrate: migrateDur, Resume: resumeDur,
		BytesMoved: int64(frameLen), Carried: carried, Rebindings: plans,
		AdaptNotes: append(reply.AdaptNotes, demoteNote...), RestoredApp: reply.RestoredApp,
		Delta: warm,
	}, nil
}

// demoteSource turns this host's running record of appName into a plain
// installation, on a fresh context so that a long transfer that
// exhausted the caller's deadline does not skip it. A failure comes back
// as a note for the report, so operators can see the stale record risk.
func (e *Engine) demoteSource(appName string) []string {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	rec, found, err := e.cat.LookupApp(ctx, appName, e.host)
	if err == nil && found && rec.Running {
		rec.Running = false
		// A durability shortfall (state.ErrNotDurable from a federated
		// center running a synchronous write concern) is not a failed
		// demotion: the record landed and anti-entropy retries replication.
		err = state.IgnoreNotDurable(e.cat.RegisterApp(ctx, rec))
	}
	if err != nil {
		return []string{"source record not demoted: " + err.Error()}
	}
	return nil
}

// wrapCovers reports whether the wrap snapshots every component of the
// instance — only then does it pin the destination's full post-unwrap
// state and qualify as a warm-handoff base.
func wrapCovers(w app.Wrap, a *app.Application) bool {
	for _, n := range a.Components() {
		if _, ok := w.Components[n]; !ok {
			return false
		}
	}
	return true
}

// handleCheckin restores an arriving follow-me wrap: deserialize, rebind
// resources, adapt to the local device, resume (paper Fig. 4's check-in
// half). The resumption duration, measured on this host's clock, returns
// to the source in the reply.
func (e *Engine) handleCheckin(tm transport.Message) ([]byte, error) {
	p, err := decodeCheckin(tm.Payload)
	if err != nil {
		return nil, err
	}
	reply, err := e.restore(p, p.App)
	if err != nil {
		return nil, err
	}
	return encodeCheckinReply(&reply), nil
}

// restore is the shared arrival path for follow-me and clone-dispatch. It
// runs within the source's budget and ends in the commit point, the
// registry's MoveApp; a restore that fails before or at the commit
// discards the arrival, and the source, seeing the check-in fail, rolls
// back.
func (e *Engine) restore(p checkinPayload, instanceName string) (checkinReply, error) {
	var reply checkinReply
	clk := e.clock()
	start := clk.Now()
	timeout := restoreTimeout
	if p.Budget > 0 && p.Budget < timeout {
		timeout = p.Budget
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// Destination-side trace spans: recorded locally and returned in the
	// reply so the source assembles the full timeline. Clone dispatches
	// and pre-tracing senders carry no trace id; the histograms still
	// observe.
	tc := e.traceClock()
	var spans []obs.Span
	addSpan := func(phase string, begin time.Time, note string) {
		d := tc.Now().Sub(begin)
		e.mPhase[phase].Observe(d)
		if p.TraceID == "" {
			return
		}
		sp := obs.Span{Trace: p.TraceID, App: p.App, Phase: phase,
			Host: e.host, Start: begin, Dur: d, Note: note}
		obs.Traces.Record(sp)
		spans = append(spans, sp)
	}
	restoreBegin := tc.Now()

	// The frame aliases the message it arrived in, and the decoded wrap
	// aliases the frame: from here to the resumed instance (and the warm
	// base below) the component bytes are shared, never copied.
	e.chargeDeserialize(int64(len(p.Frame)))
	var wrap app.Wrap
	var arrived *state.DigestedWrap // the arrival's wrap, as a warm base
	if p.Delta {
		// Warm handoff: reassemble the full wrap from our cached base.
		// Any mismatch — no base, wrong digest, torn frame — answers
		// needFullWrap so the source retries cold instead of failing the
		// migration.
		d, err := state.DecodeDelta(p.Frame)
		if err != nil {
			return reply, fmt.Errorf("%s: %v", needFullWrap, err)
		}
		e.mu.Lock()
		be := e.bases[p.App]
		e.mu.Unlock()
		if be == nil || be.wrap.Digest() != d.BaseDigest {
			return reply, fmt.Errorf("%s: no base for %s", needFullWrap, p.App)
		}
		if arrived, err = be.wrap.Apply(d); err != nil {
			return reply, fmt.Errorf("%s: %v", needFullWrap, err)
		}
		wrap = arrived.Wrap
	} else {
		var err error
		if wrap, err = state.DecodeWrap(p.Frame); err != nil {
			return reply, err
		}
		arrived = state.NewDigestedWrap(wrap)
	}

	// Locate or create the instance: an already-running instance, a
	// locally installed factory, or (code-carrying migration) a bare
	// instance rebuilt entirely from the wrap.
	e.mu.Lock()
	inst, running := e.apps[instanceName]
	factory := e.factories[p.App]
	e.mu.Unlock()
	if !running {
		if factory != nil {
			inst = factory(e.host)
		} else {
			inst = app.New(instanceName, e.host, p.Desc)
		}
	}
	if inst.State() == app.Running {
		if err := inst.Suspend(); err != nil {
			return reply, err
		}
		// An arrival that does not commit leaves the instance it
		// suspended running again.
		defer func() {
			if inst.State() == app.Suspended {
				_ = inst.Resume()
			}
		}()
	}
	if err := inst.Unwrap(wrap); err != nil {
		return reply, err
	}
	inst.SetHost(e.host)
	changeSeq := inst.ChangeSeq()

	addSpan(obs.PhaseRestore, restoreBegin, fmt.Sprintf("delta=%v", p.Delta))
	rebindBegin := tc.Now()

	// Resource rebinding (paper §3.3).
	for _, plan := range p.Rebindings {
		switch plan.Action {
		case owl.RebindUseLocal:
			inst.BindResource(plan.Target)
		case owl.RebindCarry:
			inst.BindResource(plan.Source) // payload traveled in the wrap
		case owl.RebindRemote:
			if err := e.bindRemote(ctx, inst, plan.Source); err != nil {
				return reply, err
			}
		}
	}

	// Adaptation to this host's device (paper §4.2.2).
	var notes []string
	if e.dev != (wsdl.DeviceProfile{}) {
		plan, _, aerr := inst.Adaptor().Apply(inst, e.dev)
		if aerr != nil {
			return reply, aerr
		}
		e.charge(e.costs.AdaptOverhead)
		notes = plan.Notes
	}

	// The commit point: one registry write demotes the source's record
	// and registers this installation running (paper §4.2.2). Past the
	// budget the source has given up and runs the app again: no commit.
	if err := ctx.Err(); err != nil {
		return reply, fmt.Errorf("migrate: check-in at %s outlived the source's budget: %w", e.host, err)
	}
	var from string
	if p.Mode == FollowMe {
		from = p.FromHost
	}
	demoted, err := e.cat.MoveApp(ctx, registry.AppRecord{
		Name: p.App, Host: e.host, Description: p.Desc,
		Components: inst.Components(), Running: true,
	}, from)
	if err = state.IgnoreNotDurable(err); err != nil {
		return reply, fmt.Errorf("migrate: commit at %s: %w", e.host, err)
	}

	// Cache the arrival as a warm-handoff base when it pins the full
	// state of a follow-me instance: a later follow-me back to the source
	// then ships only what changed here. (Clones evolve independently
	// over their sync links, so their arrival wraps pin nothing.)
	if p.Mode == FollowMe && wrapCovers(wrap, inst) {
		e.mu.Lock()
		e.bases[p.App] = &baseEntry{
			wrap: arrived, peer: p.FromHost,
			inst: inst, changeSeq: changeSeq,
		}
		e.mu.Unlock()
	}
	e.charge(e.costs.CheckinOverhead)
	if err := inst.Resume(); err != nil {
		return reply, err
	}
	e.mu.Lock()
	e.apps[instanceName] = inst
	e.mu.Unlock()

	addSpan(obs.PhaseRebind, rebindBegin, fmt.Sprintf("rebindings=%d", len(p.Rebindings)))
	return checkinReply{
		ResumeNanos:   int64(clk.Now().Sub(start)),
		AdaptNotes:    notes,
		RestoredApp:   instanceName,
		Spans:         spans,
		SourceDemoted: demoted,
	}, nil
}

// bindRemote establishes a remote URL binding to data that stays on its
// owning host (the resource record's host, which may differ from the host
// the application just left): open the stream and prebuffer the playback
// window in one round trip, and charge the remote-scan cost that makes
// resume grow gently with file size (Fig. 8).
func (e *Engine) bindRemote(ctx context.Context, inst *app.Application, res owl.Resource) error {
	url := media.URL(res.Host, dataComponentFor(res))
	_, _, err := media.OpenRemoteWindow(ctx, e.ep, MediaEndpointName(res.Host), url, e.costs.PrebufferBytes)
	if errors.Is(err, transport.ErrNoRoute) {
		// mdagentd serves its library on the engine endpoint too, and a
		// destination that has no peer address for the owner reaches it
		// only by the engine name its check-in arrived from. No library
		// answered under the media name, so no read is asked twice.
		_, _, err = media.OpenRemoteWindow(ctx, e.ep, EndpointName(res.Host), url, e.costs.PrebufferBytes)
	}
	if err != nil {
		return fmt.Errorf("migrate: remote bind %s: %w", url, err)
	}
	if e.costs.RemoteScanMBps > 0 && res.SizeBytes > 0 {
		secs := float64(res.SizeBytes) / (e.costs.RemoteScanMBps * 1e6)
		e.charge(time.Duration(secs * float64(time.Second)))
	}
	bound := res
	if bound.Attrs == nil {
		bound.Attrs = make(map[string]string, 1)
	} else {
		attrs := make(map[string]string, len(bound.Attrs)+1)
		for k, v := range bound.Attrs {
			attrs[k] = v
		}
		bound.Attrs = attrs
	}
	bound.Attrs["url"] = url
	inst.BindResource(bound)
	return nil
}
