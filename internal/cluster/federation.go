package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// Center is one smart space's registry center, federated with its peers:
// every app, resource, and device record written here is stamped with a
// per-record version vector (vclock.Version), pushed to peer centers
// best-effort, and reconciled by periodic anti-entropy digests. Reads see
// the union of all spaces once replication converges, so OWL rebinding
// queries resolve against every space's inventory. Center satisfies
// migrate.Catalog, so engines use it exactly like a single registry.
type Center struct {
	space string
	reg   *registry.Registry
	ep    *transport.Endpoint
	cfg   Config

	mu      sync.Mutex
	records map[string]Record
	// durable is the last copy of each snapshot record known to have met
	// a synchronous write concern — refreshed when a local write collects
	// its acks or a replicated record arrives already stamped durable,
	// and invalidated by tombstones. Failover prefers it over a fresher
	// head record that only ever existed on one center.
	durable map[string]Record
	// chains is, per live snapshot record, the chain its persisted head
	// names (snapstore.go); absent while the store holds the record in
	// any other form.
	chains map[string]diskChain
	peers  map[string]string // peer space -> endpoint name
	rng    *rand.Rand

	// reachable, when set, is the membership view: whether a peer space's
	// center is currently believed reachable. Durable writes consult it
	// to fail fast (degraded mode) instead of waiting out ack timeouts
	// against a partitioned majority. Nil assumes every peer reachable.
	reachable func(space string) bool
	// onDurability observes each synchronous-concern write outcome.
	onDurability func(DurabilityEvent)

	// pushers carries snapshot pushes (full records and deltas) to one
	// FIFO worker per peer, so each peer receives them in write order —
	// a reordered delta would be dropped at the peer and cost an
	// anti-entropy round to repair — while a dead peer only stalls its
	// own queue, never the healthy ones. Non-snapshot records keep the
	// unordered pushAsync path under WriteAsync; synchronous concerns
	// route every write through the workers so acks flow back per peer.
	pushers map[string]chan pushItem // peer endpoint -> ordered queue

	// Process-wide metrics, pinned at construction.
	mPush    *obs.Counter   // items handed to the ordered push workers
	mAck     *obs.Counter   // deliveries the peer acknowledged
	mNack    *obs.Counter   // failed deliveries + backlog refusals
	mRejects *obs.Counter   // inbound deltas this center could not chain
	mAckWait *obs.Histogram // synchronous write-concern ack wait
	// mPersistErrs counts writes the store refused; each one failed the
	// put, delta apply or push it belonged to instead of being acked.
	mPersistErrs *obs.Counter

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// pushItem is one pre-encoded message awaiting ordered delivery.
type pushItem struct {
	msgType string
	payload []byte
	key     string // record key, for the durable delta full-record fallback
	// ack, when non-nil, receives exactly one delivery verdict for this
	// item (nil = the peer now holds the write). The channel is buffered
	// for every peer, so workers never block on a writer that timed out.
	ack chan<- error
}

// errPushBacklog reports a peer whose ordered push queue is full — it is
// stalled and cannot acknowledge a durable write in time.
var errPushBacklog = errors.New("cluster: peer push queue full")

// fedKeyPrefix prefixes the store keys the center persists its
// replication state (records + version vectors) under.
const fedKeyPrefix = "fed/"

// NewCenter creates the center for space over local registry reg, serving
// federation messages on ep. Replication state is persisted to the
// registry's store, so a center backed by a durable store resumes its
// version history after a restart instead of re-issuing counters its
// peers have already seen (which they would reject as stale). Call Start
// to begin anti-entropy; pushes and digest answers work as soon as it is
// created.
func NewCenter(space string, reg *registry.Registry, ep *transport.Endpoint, cfg Config) *Center {
	cfg = cfg.withDefaults()
	c := &Center{
		space:   space,
		reg:     reg,
		ep:      ep,
		cfg:     cfg,
		records: make(map[string]Record),
		durable: make(map[string]Record),
		chains:  make(map[string]diskChain),
		peers:   make(map[string]string),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(len(space)))),
		pushers: make(map[string]chan pushItem),
		stop:    make(chan struct{}),

		mPush:    obs.Default.Counter("mdagent_fed_push_total", "space", space),
		mAck:     obs.Default.Counter("mdagent_fed_ack_total", "space", space),
		mNack:    obs.Default.Counter("mdagent_fed_nack_total", "space", space),
		mRejects: obs.Default.Counter("mdagent_fed_delta_rejects_total", "space", space),
		mAckWait: obs.Default.Histogram("mdagent_fed_ack_wait_ns", "space", space),

		mPersistErrs: obs.Default.Counter("mdagent_fed_persist_errors_total", "space", space),
	}
	c.loadRecords()
	ep.Handle(MsgFedDigest, c.handleDigest)
	ep.Handle(MsgFedPush, c.handlePush)
	ep.Handle(MsgFedSnapDelta, c.handleSnapDelta)
	ep.Handle(MsgFedDurable, c.handleDurable)
	return c
}

// Space returns the smart space this center serves.
func (c *Center) Space() string { return c.space }

// Registry exposes the center's local registry — after convergence it
// holds the union of every federated space's records.
func (c *Center) Registry() *registry.Registry { return c.reg }

// AddPeer federates with another space's center at the given endpoint.
func (c *Center) AddPeer(space, endpoint string) {
	c.mu.Lock()
	c.peers[space] = endpoint
	c.mu.Unlock()
}

// SetReachable wires the membership view durable writes consult: f
// reports whether a peer space's center is currently believed reachable.
// When too few peers are reachable to ever meet the write concern, a
// durable write fails fast with ErrNotDurable (degraded mode) instead of
// waiting out ack timeouts. Nil (the default) assumes every peer
// reachable.
func (c *Center) SetReachable(f func(space string) bool) {
	c.mu.Lock()
	c.reachable = f
	c.mu.Unlock()
}

// OnDurability registers an observer for synchronous-concern write
// outcomes (internal/core bridges it onto the context kernel as
// cluster.durable / cluster.degraded events).
func (c *Center) OnDurability(f func(DurabilityEvent)) {
	c.mu.Lock()
	c.onDurability = f
	c.mu.Unlock()
}

// reachablePeers counts the peers the membership view believes reachable
// right now, or -1 when no view is wired (assume reachable, wait the
// timeouts). Called OUTSIDE c.mu: the view calls into membership nodes
// whose locks must never nest under the center's.
func (c *Center) reachablePeers() int {
	c.mu.Lock()
	f := c.reachable
	spaces := make([]string, 0, len(c.peers))
	for s := range c.peers {
		spaces = append(spaces, s)
	}
	c.mu.Unlock()
	if f == nil {
		return -1
	}
	n := 0
	for _, s := range spaces {
		if f(s) {
			n++
		}
	}
	return n
}

// reportDurability fires the durability observer, off every center lock.
func (c *Center) reportDurability(ev DurabilityEvent) {
	c.mu.Lock()
	f := c.onDurability
	c.mu.Unlock()
	if f != nil {
		f(ev)
	}
}

// awaitAcks is the synchronous leg of a durable write: it drains per-peer
// delivery verdicts until the concern is met, every peer answered, or the
// ack window closes. Exactly `sent` verdicts will eventually arrive on
// acks (the channel is buffered for all of them), so returning early
// never strands a worker.
func (c *Center) awaitAcks(ctx context.Context, acks <-chan error, sent, required int) int {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	defer func() { c.mAckWait.Observe(time.Since(start)) }()
	timer := time.NewTimer(c.cfg.AckTimeout)
	defer timer.Stop()
	acked, responded := 0, 0
	for acked < required && responded < sent {
		select {
		case err := <-acks:
			responded++
			if err == nil {
				acked++
			}
		case <-timer.C:
			return acked
		case <-ctx.Done():
			return acked
		}
	}
	return acked
}

// markDurable stamps a snapshot record as having met its write concern —
// if it is still the version that was written — refreshes the durable
// stash failover prefers, and broadcasts a best-effort confirmation so
// peers that acked the data push stamp their copies too (FIFO-ordered
// behind the push itself). Without the confirm, peer stashes would only
// advance via anti-entropy deliveries of already-stamped records and
// failover's durable-preference could prefer an arbitrarily old capture.
func (c *Center) markDurable(key string, ver vclock.Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[key]
	if !ok || rec.Kind != RecordSnapshot || rec.Deleted || rec.Version.Compare(ver) != vclock.Equal {
		return
	}
	rec.Snap.Durable = true
	// A mark the store refused stays off this copy (counted, and the
	// stash keeps its older record); the write itself did meet its
	// concern, so the peers holding it are still told.
	if c.persist(rec, headOnly) == nil {
		c.records[key] = rec
		c.durable[key] = rec
	}
	c.enqueuePushLocked(MsgFedDurable, transport.MustEncode(durableMsg{
		From: c.space, Key: key, Version: ver.Clone(),
	}), key, nil)
}

// handleDurable adopts a writer's confirmation that a snapshot write met
// its concern: if our stored record is exactly that version, stamp it
// and refresh the durable stash.
func (c *Center) handleDurable(msg transport.Message) ([]byte, error) {
	var m durableMsg
	if err := transport.Decode(msg.Payload, &m); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[m.Key]
	if !ok || rec.Kind != RecordSnapshot || rec.Deleted || rec.Version.Compare(m.Version) != vclock.Equal {
		return nil, nil // different (or newer) state here: nothing to stamp
	}
	rec.Snap.Durable = true
	if err := c.persist(rec, headOnly); err != nil {
		return nil, err
	}
	c.records[m.Key] = rec
	c.durable[m.Key] = rec
	return nil, nil
}

// Start launches the anti-entropy loop.
func (c *Center) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.SyncInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.syncOnce()
			}
		}
	}()
}

// Stop halts anti-entropy. The center answers peers until its endpoint
// closes.
func (c *Center) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// --- Write API (each write stamps a version and replicates). ---

// RegisterApp registers an application installation, stamping a version
// and replicating to peers. An empty Space defaults to this center's.
func (c *Center) RegisterApp(ctx context.Context, rec registry.AppRecord) error {
	if rec.Space == "" {
		rec.Space = c.space
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	return c.write(ctx, Record{Key: rec.Key(), Kind: RecordApp, App: rec})
}

// UnregisterApp tombstones an application installation across the
// federation.
func (c *Center) UnregisterApp(ctx context.Context, name, host string) error {
	rec := registry.AppRecord{Name: name, Host: host}
	return c.write(ctx, Record{Key: rec.Key(), Kind: RecordApp, App: rec, Deleted: true})
}

// snapKey is the replication-table key for an app's latest snapshot.
// Keyed by application (not host): failover wants the freshest state
// wherever it was captured, and a migrating app's new host simply
// supersedes the old one's record.
func snapKey(appName string) string { return "snap/" + appName }

// A Center is the state pipeline's publisher.
var _ state.Publisher = (*Center)(nil)

// PutSnapshot applies one replication put — a full base frame or a delta
// against the stored record's newest state — and replicates the result
// federation-wide. The center assigns the record's capture sequence
// (previous + 1 under the write lock), so concurrent snapshots from
// different spaces resolve to the longest capture history. A delta whose
// base digest does not match the stored state fails with
// state.ErrNeedFull (the publisher re-sends a full frame); an accepted
// delta is appended to the record's chain, compacted into a fresh base
// when the chain grows past MaxDeltaChain or outweighs half the
// base frame, and pushed to peers as a delta-only message so the
// federation wire carries kilobytes, not the multi-megabyte base.
func (c *Center) PutSnapshot(ctx context.Context, put state.SnapshotPut) (state.SnapshotStamp, error) {
	if put.App == "" {
		return state.SnapshotStamp{}, fmt.Errorf("cluster: snapshot put has no app")
	}
	// The put's write-concern header overrides the center default. An
	// unknown value is refused before anything is stored or enqueued: a
	// malformed header must not poison the record or the push workers.
	wc := c.cfg.WriteConcern
	if put.Concern != "" {
		var err error
		if wc, err = ParseWriteConcern(put.Concern); err != nil {
			return state.SnapshotStamp{}, fmt.Errorf("cluster: snapshot put for %s: %w", put.App, err)
		}
	}
	reach := -1
	if wc != WriteAsync {
		reach = c.reachablePeers()
	}
	if put.Space == "" {
		put.Space = c.space
	}
	if put.Delta {
		// A frame that fails its checksum, or whose embedded base digest
		// disagrees with the put's, would poison the stored chain forever
		// (every later delta still chains on the advertised digest, so
		// nothing downstream would ever repair it). Refuse it up front.
		if d, err := state.DecodeDelta(put.Frame); err != nil || d.BaseDigest != put.BaseDigest {
			return state.SnapshotStamp{}, fmt.Errorf("cluster: delta put for %s: bad frame: %w", put.App, state.ErrNeedFull)
		}
	}
	key := snapKey(put.App)
	c.mu.Lock()
	prev := c.records[key]
	var rec Record
	if put.Delta {
		if prev.Kind != RecordSnapshot || prev.Deleted || len(prev.Snap.Frame) == 0 ||
			prev.Snap.StateDigest != put.BaseDigest {
			c.mu.Unlock()
			return state.SnapshotStamp{}, fmt.Errorf("cluster: delta put for %s: %w", put.App, state.ErrNeedFull)
		}
		snap := prev.Snap
		snap.Deltas = append(append([][]byte(nil), prev.Snap.Deltas...), put.Frame)
		snap.Seq++
		snap.Host, snap.Space, snap.At = put.Host, put.Space, put.At
		snap.StateDigest = put.NewDigest
		snap.Durable = false // the base's mark is not this write's: markDurable stamps it once acked
		rec = Record{Key: key, Kind: RecordSnapshot, Snap: snap}
	} else {
		rec = Record{Key: key, Kind: RecordSnapshot, Snap: state.SnapshotRecord{
			App: put.App, Host: put.Host, Space: put.Space, At: put.At,
			Seq: prev.Snap.Seq + 1, BaseSeq: prev.Snap.Seq + 1,
			Frame: put.Frame, StateDigest: put.NewDigest,
		}}
	}
	rec.Version = prev.Version.Tick(c.space)
	rec.Origin = c.space
	scope := wholeRecord
	if put.Delta {
		scope = newestDelta
	}
	if err := c.persist(rec, scope); err != nil {
		c.mu.Unlock()
		return state.SnapshotStamp{}, err
	}
	c.records[key] = rec
	stamp := state.SnapshotStamp{Seq: rec.Snap.Seq, BaseSeq: rec.Snap.BaseSeq, Chain: len(rec.Snap.Deltas)}
	peerCount := len(c.peers)
	required := requiredAcks(wc, len(c.peers))
	// Degraded mode: the membership view says too few peer centers are
	// reachable to ever meet the concern — fall back to async replication
	// and fail fast instead of waiting out ack timeouts per write.
	degraded := required > 0 && reach >= 0 && reach < required
	var acks chan error
	sent := 0
	// Enqueue while still holding c.mu: two racing puts must hit the
	// ordered push queue in the same order their sequences were assigned.
	// A delta put always pushes just the delta — even when this center
	// compacted its own chain — because peers track the state by digest
	// and compact independently; only a fresh base frame needs the full
	// record on the wire. (A durable delta push falls back to the full
	// record per peer when the peer cannot chain the delta.)
	if required > 0 && !degraded {
		acks = make(chan error, len(c.peers))
	}
	if put.Delta {
		sent = c.enqueuePushLocked(MsgFedSnapDelta, transport.MustEncode(snapDeltaMsg{
			From: c.space, Key: rec.Key, Version: rec.Version.Clone(),
			Seq: rec.Snap.Seq, Host: rec.Snap.Host, Space: rec.Snap.Space, At: rec.Snap.At,
			BaseDigest: put.BaseDigest, NewDigest: put.NewDigest, Delta: put.Frame,
		}), key, acks)
	} else {
		sent = c.enqueuePushLocked(MsgFedPush, transport.MustEncode(pushMsg{From: c.space, Records: []Record{rec}}), key, acks)
	}
	ver := rec.Version.Clone()
	c.mu.Unlock()
	c.compactIfHeavy(key)
	if required == 0 {
		if wc != WriteAsync {
			c.reportDurability(DurabilityEvent{Key: key, Concern: wc, Durable: true})
		}
		return stamp, nil
	}
	if degraded {
		c.reportDurability(DurabilityEvent{Key: key, Concern: wc, Required: required, Degraded: true})
		return stamp, fmt.Errorf("cluster: put %s: %d/%d peers reachable, concern %s unmeetable: %w",
			key, reach, peerCount, wc, ErrNotDurable)
	}
	acked := c.awaitAcks(ctx, acks, sent, required)
	if acked < required {
		c.reportDurability(DurabilityEvent{Key: key, Concern: wc, Required: required, Acked: acked})
		return stamp, fmt.Errorf("cluster: put %s acked by %d/%d peers (concern %s): %w",
			key, acked, required, wc, ErrNotDurable)
	}
	c.markDurable(key, ver)
	c.reportDurability(DurabilityEvent{Key: key, Concern: wc, Required: required, Acked: acked, Durable: true})
	return stamp, nil
}

// enqueuePushLocked hands one pre-encoded message to every peer's
// ordered push worker (created lazily) and returns how many verdicts the
// caller may expect. An async item (nil ack) is dropped when a peer's
// queue is full — that peer is stalled and anti-entropy will repair it;
// a durable item gets an immediate backlog verdict instead, so every
// enqueued peer accounts for exactly one ack-channel send. Callers hold
// c.mu.
func (c *Center) enqueuePushLocked(msgType string, payload []byte, key string, ack chan<- error) int {
	it := pushItem{msgType: msgType, payload: payload, key: key, ack: ack}
	sent := 0
	for _, ep := range c.peers {
		q, ok := c.pushers[ep]
		if !ok {
			q = make(chan pushItem, 256)
			c.pushers[ep] = q
			c.wg.Add(1)
			go c.pushWorker(ep, q)
		}
		select {
		case q <- it:
			c.mPush.Inc()
			sent++
		default:
			c.mNack.Inc()
			if ack != nil {
				ack <- errPushBacklog // buffered for every peer: never blocks
				sent++
			}
		}
	}
	return sent
}

// pushWorker delivers one peer's queued pushes in order, each under its
// own timeout, so a dead peer burns only its own queue's time. Durable
// items get their delivery verdict sent back to the waiting writer.
func (c *Center) pushWorker(peer string, q chan pushItem) {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case it := <-q:
			err := c.deliverPush(peer, it)
			if err == nil {
				c.mAck.Inc()
			} else {
				c.mNack.Inc()
			}
			if it.ack != nil {
				it.ack <- err
			}
		}
	}
}

// deliverPush sends one queued item to a peer. For a durable delta push
// the peer reports in-band whether it could chain the delta; a peer
// whose base diverged does not hold the write, so the pusher falls back
// to the whole current record — apply()'s version rules land it there
// regardless of the peer's state, making the write (or a successor of
// it) durable on that peer.
func (c *Center) deliverPush(peer string, it pushItem) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	reply, err := c.ep.Request(ctx, peer, it.msgType, it.payload)
	cancel()
	if err != nil {
		return err
	}
	if it.ack == nil || it.msgType != MsgFedSnapDelta {
		// Async push, or a full-record push whose error-free reply is the
		// ack: after handlePush returns, the peer's stored version
		// supersedes-or-equals the pushed one — either it installed the
		// record, already held it (or newer), or resolved a concurrent
		// conflict to the merged vector, which dominates the pushed write.
		// A conflict-losing payload is superseded by deterministic
		// resolution, not lost: the writer converges to the same winner
		// via anti-entropy whether it lives or dies, so it counts as
		// durable.
		return nil
	}
	var ack snapDeltaAck
	if err := transport.Decode(reply.Payload, &ack); err != nil {
		return err
	}
	if ack.Applied {
		return nil
	}
	c.mu.Lock()
	rec, ok := c.records[it.key]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: record %s vanished before durable fallback push", it.key)
	}
	fctx, fcancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer fcancel()
	_, err = c.ep.Request(fctx, peer, MsgFedPush,
		transport.MustEncode(pushMsg{From: c.space, Records: []Record{rec}}))
	return err
}

// chainHeavy reports whether a snapshot record's delta chain has grown
// past MaxDeltaChain deltas or outweighs half its base — past
// that point the chain costs more to store, ship, and reassemble than
// the base it amends.
func (c *Center) chainHeavy(rec Record) bool {
	if rec.Kind != RecordSnapshot || rec.Deleted || len(rec.Snap.Deltas) == 0 {
		return false
	}
	var deltaBytes int
	for _, d := range rec.Snap.Deltas {
		deltaBytes += len(d)
	}
	return len(rec.Snap.Deltas) > MaxDeltaChain || deltaBytes > len(rec.Snap.Frame)/2
}

// compactIfHeavy folds a heavy delta chain into a fresh base frame. The
// multi-megabyte reassembly and re-encode run OUTSIDE c.mu — a failover
// racing a compaction must not block on the center lock for a gob
// round-trip — and the result is swapped in only if the record has not
// changed meanwhile (a newer write will trigger its own compaction).
// Compaction changes only the representation: digest, sequence, and
// version are untouched, so peers and publishers are unaffected. A
// chain that fails to reassemble is left alone (the restore-side
// fallback handles it).
func (c *Center) compactIfHeavy(key string) {
	c.mu.Lock()
	rec, ok := c.records[key]
	if !ok || !c.chainHeavy(rec) {
		c.mu.Unlock()
		return
	}
	snap := rec.Snap // Frame/Deltas are append-only shared slices: safe to read unlocked
	ver := rec.Version.Clone()
	c.mu.Unlock()

	ts, err := snap.Snapshot()
	if err != nil {
		return
	}
	frame, err := state.EncodeSnapshot(ts)
	if err != nil {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.records[key]
	if !ok || cur.Kind != RecordSnapshot || cur.Deleted || cur.Version.Compare(ver) != vclock.Equal {
		return // superseded while we compacted; the next write re-tries
	}
	cur.Snap.Frame = frame
	cur.Snap.BaseSeq = cur.Snap.Seq
	cur.Snap.Deltas = nil
	if c.persist(cur, wholeRecord) == nil { // refused: the uncompacted record stays, in memory as on disk
		c.records[key] = cur
	}
}

// handleSnapDelta appends a peer's delta push to our copy of the record
// when — and only when — our newest state is exactly the base the delta
// was computed against and the incoming version strictly supersedes
// ours. Anything else is not applied — anti-entropy delivers the
// authoritative record shortly — but the reply always reports whether
// this center now holds the pushed write (applied it, or already held
// that version or newer), so a durable pusher knows when to fall back to
// a full-record push.
func (c *Center) handleSnapDelta(msg transport.Message) ([]byte, error) {
	var m snapDeltaMsg
	if err := transport.Decode(msg.Payload, &m); err != nil {
		return nil, err
	}
	nack, err := transport.Encode(snapDeltaAck{})
	if err != nil {
		return nil, err
	}
	// Same up-front frame validation as PutSnapshot: appending a torn or
	// internally inconsistent delta would poison this replica's chain
	// permanently (versions match the writer's, so anti-entropy would
	// never re-offer the record).
	if d, err := state.DecodeDelta(m.Delta); err != nil || d.BaseDigest != m.BaseDigest {
		c.mRejects.Inc()
		return nack, nil
	}
	c.mu.Lock()
	ex, ok := c.records[m.Key]
	if !ok || ex.Kind != RecordSnapshot || ex.Deleted ||
		ex.Snap.StateDigest != m.BaseDigest ||
		ex.Version.Compare(m.Version) != vclock.Before {
		applied := false
		if ok {
			// Already at (or past) the pushed version: the write is not
			// lost if this center is the writer's only surviving peer.
			cmp := ex.Version.Compare(m.Version)
			applied = cmp == vclock.Equal || cmp == vclock.After
		}
		c.mu.Unlock()
		if applied {
			return transport.Encode(snapDeltaAck{Applied: true})
		}
		c.mRejects.Inc()
		return nack, nil
	}
	rec := ex
	rec.Snap.Deltas = append(append([][]byte(nil), ex.Snap.Deltas...), m.Delta)
	rec.Snap.Seq = m.Seq
	rec.Snap.Host, rec.Snap.Space, rec.Snap.At = m.Host, m.Space, m.At
	rec.Snap.StateDigest = m.NewDigest
	rec.Snap.Durable = false // this copy's durability is the writer's call
	rec.Version = m.Version.Clone()
	rec.Origin = m.From
	if err := c.persist(rec, newestDelta); err != nil {
		// Not stored, so not held: the pusher must not book this ack.
		c.mu.Unlock()
		return nack, nil
	}
	c.records[m.Key] = rec
	c.mu.Unlock()
	c.compactIfHeavy(m.Key)
	return transport.Encode(snapDeltaAck{Applied: true})
}

// DropSnapshot tombstones an application's replicated snapshot — the
// graceful-stop path, so failover never restores state for an app an
// operator deliberately stopped.
func (c *Center) DropSnapshot(ctx context.Context, appName, host string) error {
	return c.write(ctx, Record{
		Key: snapKey(appName), Kind: RecordSnapshot,
		Snap: state.SnapshotRecord{App: appName, Host: host}, Deleted: true,
	})
}

// LatestSnapshot returns the freshest replicated snapshot this center
// knows for an application (false when none, or when it was tombstoned).
func (c *Center) LatestSnapshot(appName string) (state.SnapshotRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.records[snapKey(appName)]
	if !ok || r.Deleted || r.Kind != RecordSnapshot {
		return state.SnapshotRecord{}, false
	}
	return r.Snap, true
}

// SnapshotSince returns the freshest replicated snapshot for an
// application, trimmed against what the requester already holds. When
// the stored record extends the same base frame (haveBaseSeq) and the
// requester's digest pins the chain state at haveSeq, the returned
// record is tail-only (deltaOnly true): head metadata plus the deltas
// past haveSeq, no base frame — kilobytes where the full record is
// megabytes. Any divergence (compacted base, unknown digest, requester
// ahead) falls back to the full record, so the caller always ends up
// restorable.
func (c *Center) SnapshotSince(appName string, haveBaseSeq, haveSeq uint64, haveDigest [sha256.Size]byte) (rec state.SnapshotRecord, found, deltaOnly bool) {
	rec, found = c.LatestSnapshot(appName)
	if !found {
		return state.SnapshotRecord{}, false, false
	}
	tail, ok := deltaTail(rec, haveBaseSeq, haveSeq, haveDigest)
	if !ok {
		return rec, true, false
	}
	rec.Frame = nil
	rec.Deltas = tail
	return rec, true, true
}

// deltaTail returns the deltas of rec past the (haveBaseSeq, haveSeq,
// haveDigest) prefix, or false when rec does not verifiably extend that
// prefix. The digest check pins the exact state: when the requester is
// behind, the first missing delta must chain onto haveDigest; when it is
// current, the record's head digest must equal it.
func deltaTail(rec state.SnapshotRecord, haveBaseSeq, haveSeq uint64, haveDigest [sha256.Size]byte) ([][]byte, bool) {
	if rec.BaseSeq != haveBaseSeq || haveSeq < rec.BaseSeq || haveSeq > rec.Seq {
		return nil, false
	}
	idx := int(haveSeq - rec.BaseSeq)
	if idx > len(rec.Deltas) {
		return nil, false
	}
	if idx == len(rec.Deltas) {
		if rec.StateDigest != haveDigest {
			return nil, false
		}
		return nil, true // requester is current: empty tail
	}
	d, err := state.DecodeDelta(rec.Deltas[idx])
	if err != nil || d.BaseDigest != haveDigest {
		return nil, false
	}
	return rec.Deltas[idx:], true
}

// SnapshotHeads lists the metadata of every live replicated snapshot
// this center holds, sorted by app — the control plane's snapshot view.
// Durability metadata comes from the durable stash when it matches the
// head version, so a listed head reflects what failover would prefer.
func (c *Center) SnapshotHeads() []state.SnapshotHead {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []state.SnapshotHead
	for _, r := range c.records {
		if r.Kind != RecordSnapshot || r.Deleted {
			continue
		}
		out = append(out, r.Snap.Head())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// LatestDurableSnapshot returns the last snapshot record for an
// application this center knows met its write concern — possibly older
// than LatestSnapshot's head when the newest writes fell short of their
// acks. Failover prefers it over a fresher-but-unacked head: an unacked
// record may be a minority-partition write the rest of the federation
// never saw, and restoring it would fork state the survivors cannot
// reconcile.
func (c *Center) LatestDurableSnapshot(appName string) (state.SnapshotRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.durable[snapKey(appName)]
	if !ok || r.Deleted || r.Kind != RecordSnapshot {
		return state.SnapshotRecord{}, false
	}
	return r.Snap, true
}

// RegisterResource registers a resource description federation-wide.
func (c *Center) RegisterResource(ctx context.Context, res owl.Resource) error {
	if err := res.Validate(); err != nil {
		return err
	}
	return c.write(ctx, Record{Key: "res/" + res.ID, Kind: RecordResource, Res: res})
}

// RegisterDevice registers a host device profile federation-wide.
func (c *Center) RegisterDevice(ctx context.Context, dev wsdl.DeviceProfile) error {
	if dev.Host == "" {
		return fmt.Errorf("cluster: device profile has no host")
	}
	return c.write(ctx, Record{Key: "dev/" + dev.Host, Kind: RecordDevice, Dev: dev})
}

// PutBundle stores a signed app bundle federation-wide: one push to any
// center replicates the bundle to every space under the configured
// write concern, so any host in the federation can install it. The
// center stores the bytes opaquely — the pushing daemon verified the
// signature against its trusted set, and every installing host verifies
// again before instantiating.
func (c *Center) PutBundle(ctx context.Context, name string, raw []byte) error {
	if name == "" {
		return fmt.Errorf("cluster: bundle has no name")
	}
	if len(raw) == 0 {
		return fmt.Errorf("cluster: bundle %q is empty", name)
	}
	return c.write(ctx, Record{
		Key:  "bundle/" + name,
		Kind: RecordBundle,
		Bdl:  registry.BundleRecord{Name: name, Raw: raw},
	})
}

// GetBundle reads a bundle from the replicated view.
func (c *Center) GetBundle(_ context.Context, name string) ([]byte, bool, error) {
	return c.reg.GetBundle(name)
}

// Bundles lists the bundles in the replicated view.
func (c *Center) Bundles(_ context.Context) ([]registry.BundleInfo, error) {
	return c.reg.Bundles()
}

// write stamps a locally originated record and replicates it under the
// center's configured write concern.
func (c *Center) write(ctx context.Context, r Record) error {
	_, err := c.writeStamped(ctx, r)
	return err
}

// writeStamped stamps a locally originated record, replicates it, and
// returns it as stamped. Stamping, installing, and mirroring into the
// registry happen under one critical section: two racing writers must
// produce two *ordered* versions (the second ticks on top of the first),
// never two identical vectors that peers could receive in different
// orders and diverge on. Snapshot records additionally get the next
// capture sequence under the same section.
//
// Under a synchronous write concern the record is pushed through the
// per-peer FIFO workers and the call blocks until enough peers acked (or
// the ack window closes, returning the record plus ErrNotDurable — the
// write landed locally and anti-entropy keeps retrying delivery). Under
// WriteAsync, and in degraded mode, the unordered best-effort pushAsync
// path is kept.
func (c *Center) writeStamped(ctx context.Context, r Record) (Record, error) {
	wc := c.cfg.WriteConcern
	reach := -1
	if wc != WriteAsync {
		reach = c.reachablePeers()
	}
	c.mu.Lock()
	prev := c.records[r.Key]
	r.Version = prev.Version.Tick(c.space)
	r.Origin = c.space
	if r.Kind == RecordSnapshot {
		r.Snap.Seq = prev.Snap.Seq + 1
	}
	if err := c.persist(r, wholeRecord); err != nil {
		c.mu.Unlock()
		return r, err
	}
	if r.Kind == RecordSnapshot && r.Deleted {
		// A graceful-stop tombstone invalidates the durable stash:
		// failover must never restore a deliberately stopped app from
		// its last quorum-acked snapshot.
		delete(c.durable, r.Key)
	}
	c.records[r.Key] = r
	err := c.applyToRegistry(r)
	required := requiredAcks(wc, len(c.peers))
	degraded := required > 0 && reach >= 0 && reach < required
	var acks chan error
	sent := 0
	// Only an error-free write replicates synchronously — mirroring the
	// async path, which also suppresses its push on a registry error.
	if err == nil && required > 0 && !degraded {
		acks = make(chan error, len(c.peers))
		sent = c.enqueuePushLocked(MsgFedPush,
			transport.MustEncode(pushMsg{From: c.space, Records: []Record{r}}), r.Key, acks)
	}
	ver := r.Version.Clone()
	c.mu.Unlock()
	if err != nil {
		return r, err
	}
	if required == 0 {
		c.pushAsync([]Record{r})
		if wc != WriteAsync {
			c.reportDurability(DurabilityEvent{Key: r.Key, Concern: wc, Durable: true})
		}
		return r, nil
	}
	if degraded {
		c.pushAsync([]Record{r})
		c.reportDurability(DurabilityEvent{Key: r.Key, Concern: wc, Required: required, Degraded: true})
		return r, fmt.Errorf("cluster: write %s: %d peers reachable, concern %s unmeetable: %w",
			r.Key, reach, wc, ErrNotDurable)
	}
	acked := c.awaitAcks(ctx, acks, sent, required)
	if acked < required {
		c.reportDurability(DurabilityEvent{Key: r.Key, Concern: wc, Required: required, Acked: acked})
		return r, fmt.Errorf("cluster: write %s acked by %d/%d peers (concern %s): %w",
			r.Key, acked, required, wc, ErrNotDurable)
	}
	c.markDurable(r.Key, ver)
	c.reportDurability(DurabilityEvent{Key: r.Key, Concern: wc, Required: required, Acked: acked, Durable: true})
	return r, nil
}

// apply installs a remotely received record if its version wins,
// mirroring it into the local registry. Concurrent versions resolve
// deterministically (higher origin space wins) with the merged vector,
// so every center converges to the same state regardless of delivery
// order. The registry mirror happens under c.mu so two winning applies
// cannot land in the registry out of version order.
func (c *Center) apply(r Record) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ex, known := c.records[r.Key]
	if known {
		switch r.Version.Compare(ex.Version) {
		case vclock.Before, vclock.Equal:
			return false, nil
		case vclock.Concurrent:
			merged := r.Version.Merge(ex.Version)
			if !concurrentWins(r, ex) {
				ex.Version = merged
				if err := c.persist(ex, headOnly); err != nil {
					return false, err
				}
				c.records[r.Key] = ex
				return false, nil
			}
			r.Version = merged
		}
	}
	if err := c.persist(r, wholeRecord); err != nil {
		return false, err
	}
	c.records[r.Key] = r
	if r.Kind == RecordSnapshot {
		if r.Deleted {
			// A replicated tombstone invalidates the durable stash too.
			delete(c.durable, r.Key)
		} else if r.Snap.Durable {
			// Anti-entropy can deliver a record its writer already
			// stamped durable; adopt that knowledge.
			c.durable[r.Key] = r
		}
	}
	return true, c.applyToRegistry(r)
}

// concurrentWins resolves a concurrent-version conflict deterministically
// — every center must pick the same winner regardless of delivery order,
// so only record-payload fields may be consulted. Snapshot records prefer
// the longer capture history (higher sequence), then a graceful-stop
// tombstone (a deliberate stop must not be undone by a concurrent capture
// whose At would beat the tombstone's zero time), then the later capture
// time; everything else, and residual ties, fall to the higher origin
// space.
func concurrentWins(r, ex Record) bool {
	if r.Kind == RecordSnapshot && ex.Kind == RecordSnapshot {
		if r.Snap.Seq != ex.Snap.Seq {
			return r.Snap.Seq > ex.Snap.Seq
		}
		if r.Deleted != ex.Deleted {
			return r.Deleted
		}
		if !r.Snap.At.Equal(ex.Snap.At) {
			return r.Snap.At.After(ex.Snap.At)
		}
	}
	return r.Origin >= ex.Origin
}

// applyToRegistry mirrors a winning record into the local registry.
func (c *Center) applyToRegistry(r Record) error {
	switch r.Kind {
	case RecordApp:
		if r.Deleted {
			return c.reg.UnregisterApp(r.App.Name, r.App.Host)
		}
		return c.reg.RegisterApp(r.App)
	case RecordResource:
		if r.Deleted {
			return nil // resource tombstones only stop replication
		}
		return c.reg.RegisterResource(r.Res)
	case RecordDevice:
		if r.Deleted {
			return nil
		}
		return c.reg.RegisterDevice(r.Dev)
	case RecordSnapshot:
		// Snapshots live only in the replication table (and its persisted
		// mirror); the registry proper never sees them.
		return nil
	case RecordBundle:
		if r.Deleted {
			return c.reg.DeleteBundle(r.Bdl.Name)
		}
		return c.reg.PutBundle(r.Bdl.Name, r.Bdl.Raw)
	}
	return fmt.Errorf("cluster: unknown record kind %d", r.Kind)
}

// --- Read API (local registry = converged union; Catalog shape). ---

// LookupApp reads one installation record from the replicated view.
func (c *Center) LookupApp(_ context.Context, name, host string) (registry.AppRecord, bool, error) {
	return c.reg.LookupApp(name, host)
}

// Device reads a host device profile from the replicated view.
func (c *Center) Device(_ context.Context, host string) (wsdl.DeviceProfile, bool, error) {
	dev, ok := c.reg.Device(host)
	return dev, ok, nil
}

// PlanRebinding answers a rebinding plan against the replicated union of
// every space's resources.
func (c *Center) PlanRebinding(_ context.Context, src owl.Resource, destHost string, mode owl.MatchMode) (owl.Rebinding, error) {
	return c.reg.PlanRebinding(src, destHost, mode)
}

// Serve binds the standard registry wire protocol onto ep with the write
// operations routed through the center (versioned + replicated) instead
// of straight into the local store — remote daemons talk to a federated
// center exactly as they would to a standalone registry, but their
// registrations propagate to every space. Reads keep the plain registry
// handlers (the local store holds the converged union).
func (c *Center) Serve(ep *transport.Endpoint) *Center {
	c.reg.Serve(ep) // read handlers + fallback writes...
	// The registry wire protocol has no reply body for writes, so a
	// durability shortfall cannot be reported in-band there; the write
	// landed locally and anti-entropy retries delivery, so remote
	// registrations succeed and the shortfall surfaces through the
	// center's own durability events. Snapshot puts DO carry the verdict
	// back (the put reply's not-durable flag) — remote replicators
	// re-queue. Hence state.IgnoreNotDurable on every write below.
	//
	// ...then shadow the write handlers with replicating versions.
	ep.Handle(registry.MsgRegisterApp, func(msg transport.Message) ([]byte, error) {
		var rec registry.AppRecord
		if err := transport.DecodeSealed(msg.Payload, &rec); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.RegisterApp(context.Background(), rec))
	})
	ep.Handle(registry.MsgUnregisterApp, func(msg transport.Message) ([]byte, error) {
		var req struct{ Name, Host string }
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.UnregisterApp(context.Background(), req.Name, req.Host))
	})
	ep.Handle(registry.MsgRegisterResource, func(msg transport.Message) ([]byte, error) {
		var res owl.Resource
		if err := transport.DecodeSealed(msg.Payload, &res); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.RegisterResource(context.Background(), res))
	})
	ep.Handle(registry.MsgRegisterDevice, func(msg transport.Message) ([]byte, error) {
		var dev wsdl.DeviceProfile
		if err := transport.DecodeSealed(msg.Payload, &dev); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.RegisterDevice(context.Background(), dev))
	})
	ep.Handle(registry.MsgPutBundle, func(msg transport.Message) ([]byte, error) {
		var req struct {
			Name string
			Raw  []byte
		}
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.PutBundle(context.Background(), req.Name, req.Raw))
	})
	// Snapshot put/get: multi-process daemons (cmd/mdagentd) join the
	// state pipeline over the same wire as their registry traffic. The
	// need-full signal rides in-band — typed errors do not survive the
	// transport, and the remote replicator must be able to tell "send me
	// a base" from a real failure.
	ep.Handle(MsgPutSnapshot, func(msg transport.Message) ([]byte, error) {
		return c.putSnapshotFast(msg.Payload)
	})
	ep.Handle(MsgGetSnapshot, func(msg transport.Message) ([]byte, error) {
		var req getSnapshotReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		if req.Have {
			rec, found, deltaOnly := c.SnapshotSince(req.App, req.HaveBaseSeq, req.HaveSeq, req.HaveDigest)
			return transport.Encode(getSnapshotReply{Rec: rec, Found: found, DeltaOnly: deltaOnly})
		}
		rec, found := c.LatestSnapshot(req.App)
		return transport.Encode(getSnapshotReply{Rec: rec, Found: found})
	})
	ep.Handle(MsgDropSnapshot, func(msg transport.Message) ([]byte, error) {
		var req dropSnapshotReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.DropSnapshot(context.Background(), req.App, req.Host))
	})
	ep.Handle(MsgListSnaps, func(msg transport.Message) ([]byte, error) {
		if _, err := transport.Open(msg.Payload); err != nil {
			return nil, err
		}
		return transport.Encode(listSnapsReply{Heads: c.SnapshotHeads()})
	})
	return c
}

// --- Replication plumbing. ---

// digest snapshots key -> version for anti-entropy.
func (c *Center) digest() map[string]vclock.Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := make(map[string]vclock.Version, len(c.records))
	for k, r := range c.records {
		d[k] = r.Version.Clone()
	}
	return d
}

// missingFor collects the records the given digest has not seen (unknown
// keys, or versions ours is not dominated by).
func (c *Center) missingFor(d map[string]vclock.Version) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Record
	for k, r := range c.records {
		theirs, ok := d[k]
		if !ok || !theirs.Dominates(r.Version) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// syncOnce pulls from one random peer.
func (c *Center) syncOnce() {
	c.mu.Lock()
	var spaces []string
	for s := range c.peers {
		spaces = append(spaces, s)
	}
	if len(spaces) == 0 {
		c.mu.Unlock()
		return
	}
	sort.Strings(spaces)
	peer := c.peers[spaces[c.rng.Intn(len(spaces))]]
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	_ = c.pullFrom(ctx, peer)
}

// SyncNow performs one synchronous digest exchange with every peer —
// tests and benches use it to force convergence without waiting out the
// anti-entropy timer.
func (c *Center) SyncNow(ctx context.Context) error {
	c.mu.Lock()
	eps := make([]string, 0, len(c.peers))
	for _, ep := range c.peers {
		eps = append(eps, ep)
	}
	c.mu.Unlock()
	sort.Strings(eps)
	var firstErr error
	for _, ep := range eps {
		if err := c.pullFrom(ctx, ep); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// pullFrom sends our digest to a peer and applies whatever it returns.
func (c *Center) pullFrom(ctx context.Context, endpoint string) error {
	var reply digestReply
	err := c.ep.RequestDecode(ctx, endpoint, MsgFedDigest,
		transport.MustEncode(digestMsg{From: c.space, Digest: c.digest()}), &reply)
	if err != nil {
		return err
	}
	for _, r := range reply.Records {
		if _, err := c.apply(r); err != nil {
			return err
		}
	}
	return nil
}

// pushAsync best-effort sends records to every peer without blocking the
// writer; anti-entropy repairs anything a push misses.
func (c *Center) pushAsync(records []Record) {
	c.mu.Lock()
	eps := make([]string, 0, len(c.peers))
	for _, ep := range c.peers {
		eps = append(eps, ep)
	}
	c.mu.Unlock()
	if len(eps) == 0 {
		return
	}
	payload := transport.MustEncode(pushMsg{From: c.space, Records: records})
	// Untracked on purpose: a push races shutdown harmlessly (the endpoint
	// just reports closed), and tying it to c.wg would race Stop's Wait.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		defer cancel()
		for _, ep := range eps {
			_, _ = c.ep.Request(ctx, ep, MsgFedPush, payload)
		}
	}()
}

func (c *Center) handleDigest(msg transport.Message) ([]byte, error) {
	var d digestMsg
	if err := transport.Decode(msg.Payload, &d); err != nil {
		return nil, err
	}
	return transport.Encode(digestReply{Records: c.missingFor(d.Digest)})
}

func (c *Center) handlePush(msg transport.Message) ([]byte, error) {
	var p pushMsg
	if err := transport.Decode(msg.Payload, &p); err != nil {
		return nil, err
	}
	for _, r := range p.Records {
		if _, err := c.apply(r); err != nil {
			return nil, err
		}
	}
	return nil, nil
}
