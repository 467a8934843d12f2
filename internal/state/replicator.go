package state

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/obs"
	"mdagent/internal/vclock"
)

// Tuning has no fields: a replicator has nothing to tune. A chain's
// shape is the center's call (it refuses a delta onto a full chain with
// ErrNeedFull) and periodic captures are paced at a fixed 64 MiB/s of
// published bytes. The type remains only as NewReplicator's last
// parameter, which the real-wire benchmark passes as Tuning{}; it goes
// when that benchmark next changes.
type Tuning struct{}

// budgetBytesPerSec is the size-aware capture cadence: after a publish
// of B bytes, the app's next periodic capture is deferred B/budget
// seconds, so a multi-megabyte app is captured less often than a chatty
// small one under the same acked-bytes budget. Only the periodic loop is
// paced — explicit SyncNow/Capture calls (and the OnRecord immediate
// path) always publish, so callers that need bounded replication lag
// still get it.
const budgetBytesPerSec = 64 << 20

// Stats counts what the replicator shipped and, as importantly, what it
// avoided shipping — the delta pipeline's whole point.
type Stats struct {
	Publishes      int64 // successful puts (full + delta)
	FullFrames     int64
	DeltaFrames    int64
	BytesPublished int64 // frame bytes actually put (full + delta)
	FullBytes      int64
	DeltaBytes     int64
	SkippedClean   int64 // captures skipped with zero serialization (dirty fast path)
	SkippedDigest  int64 // serialized but content-identical (digest dedupe)
	SkippedBudget  int64 // periodic captures deferred by the byte budget
	Rebaselines    int64 // full frames sent because the publisher refused a delta (ErrNeedFull)
	// NotDurable counts puts the publisher accepted locally but could not
	// replicate to the peers its write concern requires (ErrNotDurable).
	// Each one leaves the acked base untouched, so the capture re-queues
	// and the state is re-published until a put meets the concern.
	NotDurable int64
}

// track is one app's publisher-side view of the replication chain, and
// that app's publish slot: mu is held across a capture, its encode, the
// Publisher call and the bookkeeping update, so an app publishes one
// capture at a time (the acked base a delta is computed against cannot
// move under it) while distinct apps publish concurrently.
type track struct {
	mu sync.Mutex
	// retired is set by a Retire that removed this track from the table,
	// before it waits for the slot: a publisher already queued for the
	// slot must look the app up again once it gets it, whichever of the
	// two wins the lock, rather than publish over the tombstone.
	retired atomic.Bool

	inst     *app.Application             // instance the fast-path counter belongs to
	haveBase bool                         // a full frame has been acked
	digest   [sha256.Size]byte            // canonical digest of the last acked state
	compSums map[string][sha256.Size]byte // per-component digests of that state
	// changeSeq is inst.ChangeSeq() at the last acked capture; valid
	// only while seqValid (same instance, fully tracked components).
	changeSeq uint64
	seqValid  bool
	nextAt    time.Time
}

// Replicator streams one host's application snapshots to its space's
// registry center. It captures every running application on a fixed
// interval and additionally forwards every snapshot the SnapshotManager
// records explicitly (pre-migrate, user-left), so the replicated copy is
// at most one interval — often zero — behind the live state.
//
// Captures are delta-pipelined end to end: an application whose dirty
// counter has not moved is skipped without serializing a byte; a changed
// application has only its changed components serialized (enumerated by
// the per-component counters) and shipped as a checksummed delta frame
// against the last acked base. The replicator has no re-base policy of
// its own: a center that will not chain a delta (its chain is full, or
// a restart or a conflicting writer lost the base) answers ErrNeedFull,
// and the replicator sends a full frame in the same capture.
type Replicator struct {
	host     string
	space    string
	apps     func() []*app.Application // running apps on this host
	pub      Publisher
	clock    vclock.Clock
	interval time.Duration

	mu        sync.Mutex
	hooked    map[*app.Application]int // instance -> its OnRecord hook id
	onPublish func(SnapshotPut, SnapshotStamp)
	onError   func(error)

	// pubMu guards the tables below and nothing else — it is never held
	// across I/O or while waiting for a track's slot. Publishes are
	// ordered per app by track.mu (lock order: track.mu, then pubMu).
	pubMu   sync.Mutex
	tracks  map[string]*track
	retired map[string]bool // gracefully stopped apps: refuse publishes
	stats   Stats

	// Process-wide metrics, pinned at construction so the hot paths pay
	// one atomic add. mSkipClean is the only one on the idle fast path.
	mPublishes  *obs.Counter
	mDeltaBytes *obs.Counter
	mFullBytes  *obs.Counter
	mNotDurable *obs.Counter
	mSkipClean  *obs.Counter

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewReplicator creates a replicator for host (in space) over the running
// apps listed by apps, publishing to pub every interval once started.
// clock stamps capture times (nil defaults to real time); Tuning has no
// fields.
func NewReplicator(host, space string, apps func() []*app.Application, pub Publisher, clock vclock.Clock, interval time.Duration, _ Tuning) *Replicator {
	if clock == nil {
		clock = &vclock.Real{}
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	return &Replicator{
		host:     host,
		space:    space,
		apps:     apps,
		pub:      pub,
		clock:    clock,
		interval: interval,
		tracks:   make(map[string]*track),
		retired:  make(map[string]bool),
		hooked:   make(map[*app.Application]int),
		stop:     make(chan struct{}),

		mPublishes:  obs.Default.Counter("mdagent_repl_publishes_total", "host", host),
		mDeltaBytes: obs.Default.Counter("mdagent_repl_delta_bytes_total", "host", host),
		mFullBytes:  obs.Default.Counter("mdagent_repl_full_bytes_total", "host", host),
		mNotDurable: obs.Default.Counter("mdagent_repl_notdurable_total", "host", host),
		mSkipClean:  obs.Default.Counter("mdagent_repl_skipped_clean_total", "host", host),
	}
}

// OnPublish registers an observer called after each successful publish
// (internal/core bridges it onto the context kernel as
// cluster.state.replicated events).
func (r *Replicator) OnPublish(f func(SnapshotPut, SnapshotStamp)) {
	r.mu.Lock()
	r.onPublish = f
	r.mu.Unlock()
}

// OnError registers an observer of the periodic loop's failed sweeps,
// called with the first error of each (a put the center refused, a
// capture that failed). A SyncNow caller gets its error returned.
func (r *Replicator) OnError(f func(error)) {
	r.mu.Lock()
	r.onError = f
	r.mu.Unlock()
}

// Stats returns a copy of the replication counters.
func (r *Replicator) Stats() Stats {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	return r.stats
}

// Start launches the periodic capture loop.
func (r *Replicator) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), r.interval*4+time.Second)
				err := r.sync(ctx, false)
				cancel()
				if err != nil {
					r.mu.Lock()
					f := r.onError
					r.mu.Unlock()
					if f != nil {
						f(err)
					}
				}
			}
		}
	}()
}

// Stop halts the capture loop (idempotent).
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// SyncNow captures and publishes every running application's current
// state once, synchronously, ignoring the byte-budget cadence (only the
// periodic loop is paced). Unchanged applications cost nothing. Tests
// and benches call it to bound replication lag deterministically.
func (r *Replicator) SyncNow(ctx context.Context) error {
	return r.sync(ctx, true)
}

// sync is one capture sweep; force bypasses the byte-budget cadence.
func (r *Replicator) sync(ctx context.Context, force bool) error {
	var firstErr error
	current := make(map[*app.Application]bool)
	for _, inst := range r.apps() {
		current[inst] = true
		r.observe(inst)
		pending, err := r.capture(ctx, inst, force)
		r.notify(pending)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.pruneHooks(current)
	return firstErr
}

// observe attaches (once per instance) to the instance's SnapshotManager
// so explicitly recorded snapshots replicate immediately. Keyed by
// pointer: a re-homed replacement instance under the same name gets its
// own hook.
func (r *Replicator) observe(inst *app.Application) {
	r.mu.Lock()
	if _, ok := r.hooked[inst]; ok {
		r.mu.Unlock()
		return
	}
	r.hooked[inst] = 0 // reserved; real id recorded below
	r.mu.Unlock()
	id := inst.Snapshots().OnRecord(func(ts app.TaggedSnapshot) {
		// The instance object survives migration to another host's engine
		// (in-process deployments share pointers), so publish only while
		// this host still runs it.
		if !r.owns(inst) {
			return
		}
		// Off the recording goroutine: Record fires mid-migration inside
		// the suspend window, which must not pay for a state encode and a
		// center write. The app's slot serializes with the periodic loop,
		// and any misordering self-heals within one capture interval.
		// Untracked on purpose: a publish racing Stop fails harmlessly,
		// and tying it to r.wg would race Stop's Wait.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), r.interval*4+time.Second)
			defer cancel()
			tr := r.slot(ts.Wrap.App)
			if tr == nil {
				return
			}
			pending, _ := r.publishWrapLocked(ctx, tr, inst, ts.Wrap, ts.At, ts.ChangeSeq, inst.FullyTracked(), false)
			tr.mu.Unlock()
			r.notify(pending)
		}()
	})
	r.mu.Lock()
	r.hooked[inst] = id
	r.mu.Unlock()
}

// pruneHooks detaches the OnRecord hooks of instances no longer running
// on this host (migrated away, stopped), so a long-lived daemon does not
// retain dead instances — and their component state — indefinitely.
func (r *Replicator) pruneHooks(current map[*app.Application]bool) {
	r.mu.Lock()
	var gone []*app.Application
	for inst := range r.hooked {
		if !current[inst] {
			gone = append(gone, inst)
		}
	}
	ids := make([]int, len(gone))
	for i, inst := range gone {
		ids[i] = r.hooked[inst]
		delete(r.hooked, inst)
	}
	r.mu.Unlock()
	for i, inst := range gone {
		if ids[i] != 0 {
			inst.Snapshots().RemoveOnRecord(ids[i])
		}
	}
}

// owns reports whether the instance is currently listed on this host.
func (r *Replicator) owns(inst *app.Application) bool {
	for _, a := range r.apps() {
		if a == inst {
			return true
		}
	}
	return false
}

// Capture publishes the instance's current state if it changed since the
// last acked capture. The capture is crash-consistent (per-component
// locking, no suspension): replication must not disturb a running
// application. The dirty fast path makes an unchanged application cost
// one counter read — no serialization, no hashing, no publisher call.
// Explicit Capture calls ignore the byte-budget cadence (only the
// periodic loop is paced).
func (r *Replicator) Capture(ctx context.Context, inst *app.Application) error {
	pending, err := r.capture(ctx, inst, true)
	r.notify(pending)
	return err
}

// slot returns the app's track with its publish slot held (the caller
// unlocks tr.mu), creating the track on first use, or nil when the app
// is retired. The table lock is released before the wait for the slot,
// so a publish in flight for one app never holds up another's.
func (r *Replicator) slot(appName string) *track {
	for {
		r.pubMu.Lock()
		if r.retired[appName] {
			r.pubMu.Unlock()
			return nil
		}
		tr := r.tracks[appName]
		if tr == nil {
			tr = &track{}
			r.tracks[appName] = tr
		}
		r.pubMu.Unlock()
		tr.mu.Lock()
		if !tr.retired.Load() {
			return tr
		}
		tr.mu.Unlock() // retired while we waited: re-check the table
	}
}

// count updates the replication counters under the table lock.
func (r *Replicator) count(f func(*Stats)) {
	r.pubMu.Lock()
	f(&r.stats)
	r.pubMu.Unlock()
}

// capture is Capture with pacing control; it returns the notification to
// fire once the slot is released — publish observers run arbitrary kernel
// subscribers, which must be free to call back into the replicator
// (Stats, Retire via StopApp) without self-deadlocking.
func (r *Replicator) capture(ctx context.Context, inst *app.Application, force bool) (*pendingPublish, error) {
	appName := inst.Name()
	tr := r.slot(appName)
	if tr == nil {
		return nil, nil
	}
	defer tr.mu.Unlock()
	if !force && !tr.nextAt.IsZero() && time.Now().Before(tr.nextAt) {
		r.count(func(s *Stats) { s.SkippedBudget++ })
		return nil, nil // size-aware cadence: this app's byte budget is spent
	}
	// Read the counter before any serialization: a mutation landing
	// mid-capture then looks newer than what we ship and re-captures.
	seqNow := inst.ChangeSeq()
	tracked := inst.FullyTracked()
	if tr.haveBase && tr.seqValid && tr.inst == inst && tracked && tr.changeSeq == seqNow {
		r.count(func(s *Stats) { s.SkippedClean++ })
		r.mSkipClean.Inc()
		return nil, nil
	}

	// Cheapest viable capture: with a valid counter baseline, serialize
	// only the components that changed since it.
	if tr.haveBase && tr.seqValid && tr.inst == inst && tracked {
		changed := inst.ChangedSince(tr.changeSeq)
		if changed == nil {
			changed = []string{} // coordinator/profile-only change: empty component set
		}
		w, err := inst.WrapComponents(changed)
		if err != nil {
			return nil, fmt.Errorf("state: capture %s: %w", appName, err)
		}
		return r.publishWrapLocked(ctx, tr, inst, w, r.clock.Now(), seqNow, tracked, true)
	}

	// No usable baseline (first capture, untracked components, restart,
	// or full-frame mode): serialize everything; publishWrapLocked still
	// ships a delta when the acked base allows it.
	w, err := inst.WrapComponents(nil)
	if err != nil {
		return nil, fmt.Errorf("state: capture %s: %w", appName, err)
	}
	return r.publishWrapLocked(ctx, tr, inst, w, r.clock.Now(), seqNow, tracked, false)
}

// pendingPublish is a successful publish awaiting its observer
// notification, fired only after the slot is released.
type pendingPublish struct {
	put   SnapshotPut
	stamp SnapshotStamp
}

// publishWrapLocked ships one captured wrap (partial — changed
// components only — or full) as a delta frame when the publisher holds
// the matching base, else as a full frame. Callers hold the app's slot
// (tr.mu, from slot — which is where a retired app is refused, so
// nothing here can overwrite a tombstone) and fire the returned
// notification after releasing it.
//
// partial marks w as containing only the components changed since the
// track's baseline; a full frame can then only be built by re-wrapping
// the instance.
func (r *Replicator) publishWrapLocked(ctx context.Context, tr *track, inst *app.Application, w app.Wrap, at time.Time, seq uint64, seqValid, partial bool) (*pendingPublish, error) {
	appName := w.App
	// Fold this capture's component digests over the acked state's.
	sums := make(map[string][sha256.Size]byte, len(tr.compSums)+len(w.Components))
	if partial {
		for n, s := range tr.compSums {
			sums[n] = s
		}
	}
	for n, b := range w.Components {
		sums[n] = ComponentDigest(w.Kinds[n], b)
	}
	digest := CombineDigests(appName, sums, w.CoordState, w.Profile)
	if tr.haveBase && digest == tr.digest {
		// Content-identical (counter moved but values did not, or an
		// explicit snapshot of already-replicated state).
		r.count(func(s *Stats) { s.SkippedDigest++ })
		r.noteAcked(tr, inst, seq, seqValid, sums, digest)
		return nil, nil
	}

	// The delta's component set: a partial wrap already holds exactly the
	// changed components; a full wrap is trimmed to the ones whose
	// digests moved. A component missing from a full wrap (not expressible
	// by an overlay delta) forces a full frame.
	dComps, dKinds := w.Components, w.Kinds
	useDelta := tr.haveBase
	if useDelta && !partial {
		dComps = make(map[string][]byte)
		dKinds = make(map[string]app.ComponentKind)
		for n, b := range w.Components {
			if tr.compSums[n] != sums[n] {
				dComps[n] = b
				dKinds[n] = w.Kinds[n]
			}
		}
		for n := range tr.compSums {
			if _, ok := w.Components[n]; !ok {
				useDelta = false // component vanished: overlay cannot express it
				break
			}
		}
	}
	if useDelta {
		frame, err := EncodeDelta(WrapDelta{
			App: appName, FromHost: w.FromHost, BaseDigest: tr.digest,
			Components: dComps, Kinds: dKinds,
			CoordState: w.CoordState, Profile: w.Profile,
		})
		if err != nil {
			return nil, err
		}
		put := SnapshotPut{
			App: appName, Host: r.host, Space: r.space, At: at,
			Delta: true, Frame: frame, BaseDigest: tr.digest, NewDigest: digest,
		}
		stamp, err := r.pub.PutSnapshot(ctx, put)
		switch {
		case err == nil:
			r.count(func(s *Stats) {
				s.Publishes++
				s.DeltaFrames++
				s.BytesPublished += int64(len(frame))
				s.DeltaBytes += int64(len(frame))
			})
			r.mPublishes.Inc()
			r.mDeltaBytes.Add(int64(len(frame)))
			r.noteAcked(tr, inst, seq, seqValid, sums, digest)
			r.paceLocked(tr, len(frame))
			return &pendingPublish{put: put, stamp: stamp}, nil
		case errors.Is(err, ErrNotDurable):
			// The center stored the delta but could not replicate it to
			// the peers the write concern requires. Do NOT advance the
			// acked base: the next capture re-queues this state (the
			// center's copy moved past our base, so the retry degrades to
			// a full frame) until a put meets the concern. Pace the retry
			// like a publish so the loop honors the byte budget.
			r.count(func(s *Stats) { s.NotDurable++ })
			r.mNotDurable.Inc()
			r.paceLocked(tr, len(frame))
			return nil, nil
		case errors.Is(err, ErrNeedFull):
			// The center will not chain this delta — its chain is full,
			// or it lost or diverged from our base (restart, a
			// conflicting writer won): fall through to a full frame now.
			r.count(func(s *Stats) { s.Rebaselines++ })
			tr.haveBase = false
		default:
			return nil, fmt.Errorf("state: replicate %s: %w", appName, err)
		}
	}

	// Full frame. A partial wrap cannot become one — re-wrap everything.
	full := w
	if partial {
		var err error
		full, err = inst.WrapComponents(nil)
		if err != nil {
			return nil, fmt.Errorf("state: capture %s: %w", appName, err)
		}
		sums = make(map[string][sha256.Size]byte, len(full.Components))
		for n, b := range full.Components {
			sums[n] = ComponentDigest(full.Kinds[n], b)
		}
		digest = CombineDigests(appName, sums, full.CoordState, full.Profile)
	}
	frame, err := EncodeSnapshot(app.TaggedSnapshot{Tag: "replica", At: at, Wrap: full, ChangeSeq: seq})
	if err != nil {
		return nil, err
	}
	put := SnapshotPut{
		App: appName, Host: r.host, Space: r.space, At: at,
		Frame: frame, NewDigest: digest,
	}
	stamp, err := r.pub.PutSnapshot(ctx, put)
	if errors.Is(err, ErrNotDurable) {
		// Landed locally, short of its write concern: re-queue (see the
		// delta path above) rather than advancing the acked base.
		r.count(func(s *Stats) { s.NotDurable++ })
		r.mNotDurable.Inc()
		r.paceLocked(tr, len(frame))
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("state: replicate %s: %w", appName, err)
	}
	r.count(func(s *Stats) {
		s.Publishes++
		s.FullFrames++
		s.BytesPublished += int64(len(frame))
		s.FullBytes += int64(len(frame))
	})
	r.mPublishes.Inc()
	r.mFullBytes.Add(int64(len(frame)))
	tr.haveBase = true
	r.noteAcked(tr, inst, seq, seqValid, sums, digest)
	r.paceLocked(tr, len(frame))
	return &pendingPublish{put: put, stamp: stamp}, nil
}

// noteAcked records the counter baseline the next dirty fast path checks
// against. Callers hold the track's slot.
func (r *Replicator) noteAcked(tr *track, inst *app.Application, seq uint64, seqValid bool, sums map[string][sha256.Size]byte, digest [sha256.Size]byte) {
	tr.inst = inst
	tr.changeSeq = seq
	tr.seqValid = seqValid && inst != nil
	tr.compSums = sums
	tr.digest = digest
}

// paceLocked defers the app's next periodic capture in proportion to the
// bytes just published. Callers hold the track's slot. Wall-clock on
// purpose, not r.clock: the capture loop runs on a real ticker even
// under virtual clocks (a virtual clock advances only by charged costs
// and would freeze the deferral window forever), so the pacing window
// must be measured on the same axis the loop runs on.
func (r *Replicator) paceLocked(tr *track, frameBytes int) {
	delay := time.Duration(float64(frameBytes) / budgetBytesPerSec * float64(time.Second))
	tr.nextAt = time.Now().Add(delay)
}

// notify invokes the publish observer, outside every replicator lock:
// observers run arbitrary kernel subscribers, which must be free to call
// back into the replicator (Stats, SyncNow, Retire via StopApp) without
// self-deadlocking.
func (r *Replicator) notify(p *pendingPublish) {
	if p == nil {
		return
	}
	r.mu.Lock()
	f := r.onPublish
	r.mu.Unlock()
	if f != nil {
		f(p.put, p.stamp)
	}
}

// Retire tombstones an app's replicated snapshot — call it when the
// application stops gracefully on this host. Further publishes for the
// app are refused (even ones already captured and racing this call)
// until Reinstate, so the tombstone cannot be overwritten by a stale
// in-flight snapshot: the app is marked retired first, so no new publish
// starts; then the slot is taken, which waits out a publish already in
// flight and turns back every publisher queued behind it; only then is
// the tombstone written.
func (r *Replicator) Retire(ctx context.Context, appName string) error {
	r.pubMu.Lock()
	r.retired[appName] = true
	tr := r.tracks[appName]
	delete(r.tracks, appName)
	r.pubMu.Unlock()
	if tr != nil {
		tr.retired.Store(true)
		tr.mu.Lock() // a publish in flight holds the slot until it is done
		tr.mu.Unlock()
	}
	return r.pub.DropSnapshot(ctx, appName, r.host)
}

// Reinstate lifts an app's retirement — call it when the application is
// deliberately started again on this host, re-enabling replication.
func (r *Replicator) Reinstate(appName string) {
	r.pubMu.Lock()
	delete(r.retired, appName)
	r.pubMu.Unlock()
}

// ForceRepublish forgets an app's replication baseline so the next
// capture publishes a full frame even if its content is unchanged — used
// when a superseded replica's stale snapshot may have claimed the
// federation's latest slot and must be re-superseded by the live copy.
// The baseline is reset under the app's slot, so a capture in flight
// finishes against the old one and the next starts from nothing.
func (r *Replicator) ForceRepublish(appName string) {
	if tr := r.slot(appName); tr != nil {
		tr.haveBase, tr.seqValid, tr.nextAt = false, false, time.Time{}
		tr.mu.Unlock()
	}
}
