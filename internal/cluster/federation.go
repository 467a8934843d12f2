package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// Center is one smart space's registry center, federated with its peers:
// every app, resource, device and bundle record written here is stamped
// with a per-record version vector (vclock.Version), pushed to peer
// centers, and reconciled by periodic anti-entropy digests. Reads see the
// union of all spaces once replication converges, so OWL rebinding
// queries resolve against every space's inventory. A center with no peers
// is the paper's single registry center: it serves the same ops and
// stores its records the same way. Engines plan and commit against it
// directly (it has migrate.Catalog's shape) or over the wire.
type Center struct {
	space string
	db    *store.Store // the records' one durable copy, under fed/ (snapstore.go); nil: volatile
	ep    *transport.Endpoint
	cfg   Config

	mu sync.Mutex
	// records is the replication table, and every read is answered from
	// it: the one in-memory copy of each record. install is the only code
	// that stores into it.
	records map[string]Record
	// hosted is the one secondary index: per host, the sorted keys of its
	// live resource records. It holds keys, not values, so a plan reads a
	// host's inventory without scanning every record.
	hosted map[string][]string
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

	// pushers carries every push (records, snapshot deltas, durable
	// marks) to one FIFO worker per peer, so each peer receives them in
	// write order — a reordered delta would be dropped at the peer and
	// cost an anti-entropy round to repair — while a dead peer only
	// stalls its own queue, never the healthy ones. Each time a worker
	// wakes it sends everything queued as one batch (fastbatch.go), so
	// racing writers share one round trip. Under a synchronous concern
	// the workers send each item's delivery verdict back to its writer.
	pushers map[string]chan pushItem // peer endpoint -> ordered queue

	// Process-wide metrics, pinned at construction.
	mPush    *obs.Counter   // items handed to the ordered push workers
	mBatch   *obs.Counter   // batch requests the push workers sent
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

// pushItem is one pre-encoded federation message: queued for ordered
// delivery at the writer, and read back out of a batch at the peer (kind
// and payload only).
type pushItem struct {
	kind    byte // fedPush, fedSnapDelta or fedDurable
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

// NewCenter creates the center for space over store db, serving
// federation messages on ep; Serve adds the registry and snapshot ops. An
// empty space with no peers is a standalone registry center. The records
// and their version vectors are the store's only content, so a center
// backed by a durable store resumes its version history after a restart
// instead of re-issuing counters its peers have already seen (which they
// would reject as stale), and its reads are rebuilt from the same records.
// A nil db makes the center volatile: it starts empty, persists nothing,
// and what it holds lives as long as the process and its peers' copies;
// it never fails. A store in a retired layout fails with an error wrapping
// store.ErrLayout, before anything is written or served. Call Start to
// begin anti-entropy; pushes and digest answers work as soon as it is
// created.
func NewCenter(space string, db *store.Store, ep *transport.Endpoint, cfg Config) (*Center, error) {
	cfg = cfg.withDefaults()
	c := &Center{
		space:   space,
		db:      db,
		ep:      ep,
		cfg:     cfg,
		records: make(map[string]Record),
		hosted:  make(map[string][]string),
		durable: make(map[string]Record),
		chains:  make(map[string]diskChain),
		peers:   make(map[string]string),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(len(space)))),
		pushers: make(map[string]chan pushItem),
		stop:    make(chan struct{}),

		mPush:    obs.Default.Counter("mdagent_fed_push_total", "space", space),
		mBatch:   obs.Default.Counter("mdagent_fed_push_batches_total", "space", space),
		mAck:     obs.Default.Counter("mdagent_fed_ack_total", "space", space),
		mNack:    obs.Default.Counter("mdagent_fed_nack_total", "space", space),
		mRejects: obs.Default.Counter("mdagent_fed_delta_rejects_total", "space", space),
		mAckWait: obs.Default.Histogram("mdagent_fed_ack_wait_ns", "space", space),

		mPersistErrs: obs.Default.Counter("mdagent_fed_persist_errors_total", "space", space),
	}
	if err := c.loadRecords(); err != nil {
		return nil, err
	}
	ep.Handle(MsgFedDigest, c.handleDigest)
	ep.Handle(MsgFedBatch, c.handleFedBatch)
	return c, nil
}

// Space returns the smart space this center serves.
func (c *Center) Space() string { return c.space }

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
		c.install(rec)
		c.durable[key] = rec
	}
	c.enqueuePushLocked(fedDurable, transport.MustEncode(durableMsg{
		From: c.space, Key: key, Version: ver.Clone(),
	}), key, nil)
}

// applyDurable adopts a writer's confirmation that a snapshot write met
// its concern: if our stored record is exactly that version, stamp it
// and refresh the durable stash.
func (c *Center) applyDurable(body []byte) error {
	var m durableMsg
	if err := transport.Decode(body, &m); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[m.Key]
	if !ok || rec.Kind != RecordSnapshot || rec.Deleted || rec.Version.Compare(m.Version) != vclock.Equal {
		return nil // different (or newer) state here: nothing to stamp
	}
	rec.Snap.Durable = true
	if err := c.persist(rec, headOnly); err != nil {
		return err
	}
	c.install(rec)
	c.durable[m.Key] = rec
	return nil
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
	return c.write(ctx, Record{Key: rec.Key(), Kind: RecordApp, App: rec.Clone()})
}

// MoveApp is a follow-me's commit point (DESIGN §6): one writeAll that
// demotes the application's running record at from, then stores rec
// running — the demotion persisted first, so a crash between the two
// leaves none running, never two — replicated in one push. An empty from
// (a clone arriving) makes it a plain register. Only a record this center
// owns (Origin is this space) is demoted: demoting another center's would
// race its owner's pushes. The result says whether this center owns it;
// false tells the source to demote it at its own center.
func (c *Center) MoveApp(ctx context.Context, rec registry.AppRecord, from string) (bool, error) {
	if rec.Space == "" {
		rec.Space = c.space
	}
	rec = rec.Clone()
	rec.Running = true
	owned := from == "" || from == rec.Host
	err := c.writeAll(ctx, func() []Record {
		var recs []Record
		if !owned {
			key := registry.AppRecord{Name: rec.Name, Host: from}.Key()
			src, ok := c.records[key]
			owned = ok && src.Origin == c.space
			if owned && !src.Deleted && src.App.Running {
				src.App.Running = false
				recs = append(recs, Record{Key: key, Kind: RecordApp, App: src.App})
			}
		}
		return append(recs, Record{Key: rec.Key(), Kind: RecordApp, App: rec})
	})
	return owned, err
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
// state.ErrNeedFull (the publisher re-sends a full frame), and so does
// a delta onto a full chain (chainFull): the center alone decides when a
// record gets a new base, and it never builds one itself. An accepted
// delta is appended to the record's chain and pushed to peers as a
// delta-only message, so the federation wire carries kilobytes, not the
// multi-megabyte base. A full frame is checked (header and checksum, no
// decode) before anything is stored: a torn base would be served to
// every restore and dropped at the next load.
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
	} else if err := state.VerifySnapshot(put.Frame); err != nil {
		return state.SnapshotStamp{}, fmt.Errorf("cluster: snapshot put for %s: bad frame: %w", put.App, err)
	}
	key := snapKey(put.App)
	c.mu.Lock()
	prev := c.records[key]
	var rec Record
	if put.Delta {
		if prev.Kind != RecordSnapshot || prev.Deleted || len(prev.Snap.Frame) == 0 ||
			prev.Snap.StateDigest != put.BaseDigest || chainFull(prev.Snap, put.Frame) {
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
	c.install(rec)
	stamp := state.SnapshotStamp{Seq: rec.Snap.Seq, BaseSeq: rec.Snap.BaseSeq, Chain: len(rec.Snap.Deltas)}
	// Enqueue while still holding c.mu: two racing puts must hit the
	// ordered push queue in the same order their sequences were assigned.
	// A delta put pushes just the delta, because peers track the state by
	// digest; only a fresh base frame needs the full record on the wire.
	// A peer that cannot chain the delta (its base diverged, or its chain
	// is full) nacks it: a durable push then falls back to the full
	// record for that peer, and anti-entropy repairs an async one.
	var rep replication
	if put.Delta {
		rep = c.replicateLocked(fedSnapDelta, snapDeltaMsg{
			From: c.space, Key: rec.Key, Version: rec.Version.Clone(),
			Seq: rec.Snap.Seq, Host: rec.Snap.Host, Space: rec.Snap.Space, At: rec.Snap.At,
			BaseDigest: put.BaseDigest, NewDigest: put.NewDigest, Delta: put.Frame,
		}, key, wc, reach)
	} else {
		rep = c.replicateLocked(fedPush, pushMsg{From: c.space, Records: []Record{rec}}, key, wc, reach)
	}
	ver := rec.Version.Clone()
	c.mu.Unlock()
	return stamp, c.verdict(ctx, rep, func() { c.markDurable(key, ver) })
}

// replication is what one stored write owes its write concern, fixed
// under c.mu when the write is handed to the push workers.
type replication struct {
	key      string
	wc       WriteConcern
	peers    int // peer centers at enqueue time
	reach    int // of those, reachable per the membership view; -1 = no view
	required int // peer acks the concern needs
	acks     chan error
	sent     int // verdicts that will arrive on acks
}

// degraded reports a write whose concern the membership view says is
// unmeetable: too few peer centers are reachable to ever ack it, so it
// replicates best-effort and fails fast instead of waiting out the ack
// window.
func (r replication) degraded() bool {
	return r.required > 0 && r.reach >= 0 && r.reach < r.required
}

// replicateLocked hands one write's push, msg, to every peer's ordered
// worker; a center with no peers encodes nothing. An async or degraded
// write enqueues without an ack channel: a stalled peer's full queue
// drops it (counted as a nack) and anti-entropy repairs it. Callers hold
// c.mu.
func (c *Center) replicateLocked(kind byte, msg any, key string, wc WriteConcern, reach int) replication {
	r := replication{key: key, wc: wc, peers: len(c.peers), reach: reach, required: requiredAcks(wc, len(c.peers))}
	if r.peers == 0 {
		return r
	}
	if r.required > 0 && !r.degraded() {
		r.acks = make(chan error, r.peers)
	}
	r.sent = c.enqueuePushLocked(kind, transport.MustEncode(msg), key, r.acks)
	return r
}

// verdict is a stored write's outcome under its concern, reported to the
// durability observer: nothing to wait for, a degraded fail-fast, or the
// ack wait. met runs once the concern is met, before the report. Called
// off c.mu.
func (c *Center) verdict(ctx context.Context, r replication, met func()) error {
	switch {
	case r.required == 0:
		if r.wc != WriteAsync {
			c.reportDurability(DurabilityEvent{Key: r.key, Concern: r.wc, Durable: true})
		}
		return nil
	case r.degraded():
		c.reportDurability(DurabilityEvent{Key: r.key, Concern: r.wc, Required: r.required, Degraded: true})
		return fmt.Errorf("cluster: write %s: %d/%d peers reachable, concern %s unmeetable: %w",
			r.key, r.reach, r.peers, r.wc, ErrNotDurable)
	}
	acked := c.awaitAcks(ctx, r.acks, r.sent, r.required)
	if acked < r.required {
		c.reportDurability(DurabilityEvent{Key: r.key, Concern: r.wc, Required: r.required, Acked: acked})
		return fmt.Errorf("cluster: write %s acked by %d/%d peers (concern %s): %w",
			r.key, acked, r.required, r.wc, ErrNotDurable)
	}
	if met != nil {
		met()
	}
	c.reportDurability(DurabilityEvent{Key: r.key, Concern: r.wc, Required: r.required, Acked: acked, Durable: true})
	return nil
}

// enqueuePushLocked hands one pre-encoded message to every peer's
// ordered push worker (created lazily) and returns how many verdicts the
// caller may expect. An async item (nil ack) is dropped when a peer's
// queue is full — that peer is stalled and anti-entropy will repair it;
// a durable item gets an immediate backlog verdict instead, so every
// enqueued peer accounts for exactly one ack-channel send. Callers hold
// c.mu.
func (c *Center) enqueuePushLocked(kind byte, payload []byte, key string, ack chan<- error) int {
	it := pushItem{kind: kind, payload: payload, key: key, ack: ack}
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

// pushWorker delivers one peer's queued pushes in order. Each time it
// wakes it drains the queue into one batch — up to maxBatchBytes of
// items, the first always taken — and sends it as one request under one
// timeout, so a dead peer burns only its own queue's time and writers
// racing on one peer share its round trip.
func (c *Center) pushWorker(peer string, q chan pushItem) {
	defer c.wg.Done()
	var batch []pushItem
	var held *pushItem // the item that did not fit the last batch
	for {
		batch = batch[:0]
		if held != nil {
			batch, held = append(batch, *held), nil
		} else {
			select {
			case <-c.stop:
				return
			case it := <-q:
				batch = append(batch, it)
			}
		}
		size := len(batch[0].payload)
	fill:
		for {
			select {
			case it := <-q:
				if size += len(it.payload); size > maxBatchBytes {
					held = &it
					break fill
				}
				batch = append(batch, it)
			default:
				break fill
			}
		}
		c.deliverBatch(peer, batch)
		clear(batch) // drop the payloads until the next wake-up
	}
}

// deliverBatch sends one batch to a peer and books one verdict per item:
// a failed request fails every item, and an item the peer reports it
// does not hold fails alone — except a durable delta, which falls back
// to the whole current record. Durable items get their verdict sent back
// to the waiting writer.
func (c *Center) deliverBatch(peer string, batch []pushItem) {
	results, err := c.sendBatch(peer, batch)
	for i, it := range batch {
		ierr := err
		if ierr == nil && results[i] != "" {
			ierr = c.notHeld(peer, it, results[i])
		}
		if ierr == nil {
			c.mAck.Inc()
		} else {
			c.mNack.Inc()
		}
		if it.ack != nil {
			it.ack <- ierr
		}
	}
}

// sendBatch makes one batch request and returns the peer's one result
// per item. An error-free result is the item's ack: after the peer
// applied a push, its stored version supersedes-or-equals the pushed
// one — it installed the record, already held it (or newer), or resolved
// a concurrent conflict to the merged vector, which dominates the pushed
// write. A conflict-losing payload is superseded by deterministic
// resolution, not lost: the writer converges to the same winner via
// anti-entropy whether it lives or dies, so it counts as durable.
func (c *Center) sendBatch(peer string, batch []pushItem) ([]string, error) {
	c.mBatch.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	reply, err := c.ep.Request(ctx, peer, MsgFedBatch, encodeFedBatch(batch))
	if err != nil {
		return nil, err
	}
	results, err := decodeFedBatchReply(reply.Payload)
	if err == nil && len(results) != len(batch) {
		err = fmt.Errorf("cluster: %s answered %d results for a batch of %d", peer, len(results), len(batch))
	}
	return results, err
}

// notHeld is the verdict on an item the peer did not take, for the
// reason why. A peer whose base diverged cannot chain a delta, so a
// durable delta push falls back to the whole current record, as a batch
// of one — apply()'s version rules land it there regardless of the
// peer's state, making the write (or a successor of it) durable on that
// peer. Anything else fails, and anti-entropy repairs it.
func (c *Center) notHeld(peer string, it pushItem, why string) error {
	if it.kind != fedSnapDelta || it.ack == nil {
		return fmt.Errorf("cluster: %s did not take %s: %s", peer, it.key, why)
	}
	c.mu.Lock()
	rec, ok := c.records[it.key]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: record %s vanished before durable fallback push", it.key)
	}
	full := pushItem{kind: fedPush, payload: transport.MustEncode(pushMsg{From: c.space, Records: []Record{rec}}), key: it.key}
	results, err := c.sendBatch(peer, []pushItem{full})
	if err == nil && results[0] != "" {
		err = fmt.Errorf("cluster: %s did not take the full record %s: %s", peer, it.key, results[0])
	}
	return err
}

// maxDeltaChain bounds a replicated snapshot record's delta chain.
const maxDeltaChain = 8

// chainFull reports whether a snapshot record's chain can take no more
// deltas: it already holds maxDeltaChain of them, or its delta frames
// plus the next one would outweigh half the base frame — past that
// point the chain costs more to store, ship and reassemble than a fresh
// base. A center refuses a delta onto a full chain, and the publisher
// answers with a full frame: this is the one rule that shapes a chain.
func chainFull(snap state.SnapshotRecord, next []byte) bool {
	if len(snap.Deltas) >= maxDeltaChain {
		return true
	}
	n := len(next)
	for _, d := range snap.Deltas {
		n += len(d)
	}
	return 2*n > len(snap.Frame)
}

// errNotChained is a peer's answer to a delta it did not chain.
var errNotChained = errors.New("cluster: delta does not chain onto this center's copy")

// applySnapDelta appends a peer's delta push to our copy of the record
// when — and only when — our newest state is exactly the base the delta
// was computed against, the incoming version strictly supersedes ours
// and our chain is not full (chainFull, the rule PutSnapshot applies).
// Anything else is not applied — anti-entropy delivers the
// authoritative record shortly — but the result always says whether
// this center now holds the pushed write (nil: applied it, or already
// held that version or newer), so a durable pusher knows when to fall
// back to a full-record push.
func (c *Center) applySnapDelta(body []byte) error {
	var m snapDeltaMsg
	if err := transport.Decode(body, &m); err != nil {
		return err
	}
	// Same up-front frame validation as PutSnapshot: appending a torn or
	// internally inconsistent delta would poison this replica's chain
	// permanently (versions match the writer's, so anti-entropy would
	// never re-offer the record).
	if d, err := state.DecodeDelta(m.Delta); err != nil || d.BaseDigest != m.BaseDigest {
		c.mRejects.Inc()
		return errNotChained
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ex, ok := c.records[m.Key]
	if !ok || ex.Kind != RecordSnapshot || ex.Deleted ||
		ex.Snap.StateDigest != m.BaseDigest ||
		ex.Version.Compare(m.Version) != vclock.Before || chainFull(ex.Snap, m.Delta) {
		if ok {
			// Already at (or past) the pushed version: the write is not
			// lost if this center is the writer's only surviving peer.
			if cmp := ex.Version.Compare(m.Version); cmp == vclock.Equal || cmp == vclock.After {
				return nil
			}
		}
		c.mRejects.Inc()
		return errNotChained
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
		return err
	}
	c.install(rec)
	return nil
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
// megabytes. Any divergence (new base, unknown digest, requester
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
	res.Attrs = maps.Clone(res.Attrs)
	return c.write(ctx, Record{Key: resKey(res.ID), Kind: RecordResource, Res: res})
}

// RegisterDevice registers a host device profile federation-wide.
func (c *Center) RegisterDevice(ctx context.Context, dev wsdl.DeviceProfile) error {
	return c.write(ctx, Record{Key: devKey(dev.Host), Kind: RecordDevice, Dev: dev})
}

// PutBundle stores a signed app bundle federation-wide: one push to any
// center replicates the bundle to every space under the configured
// write concern, so any host in the federation can install it. The
// center stores the bytes opaquely — its control plane's push op is the
// only wire path here and admits the bundle against the center's trusted
// set first, and every installing host verifies again before
// instantiating.
func (c *Center) PutBundle(ctx context.Context, name string, raw []byte) error {
	return c.write(ctx, Record{
		Key:  bundleKey(name),
		Kind: RecordBundle,
		Bdl:  registry.BundleRecord{Name: name, Raw: raw},
	})
}

// GetBundle returns a copy of a bundle's bytes from the replicated view:
// the record holds them, and they outlive the call (they cross the wire
// and feed the verifier).
func (c *Center) GetBundle(_ context.Context, name string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.records[bundleKey(name)]
	if !ok || r.Deleted || r.Kind != RecordBundle {
		return nil, false, nil
	}
	return append([]byte(nil), r.Bdl.Raw...), true, nil
}

// Bundles lists the bundles in the replicated view, sorted by name.
func (c *Center) Bundles(_ context.Context) ([]registry.BundleInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []registry.BundleInfo
	for _, r := range c.records {
		if r.Kind == RecordBundle && !r.Deleted {
			out = append(out, registry.BundleInfo{Name: r.Bdl.Name, Bytes: int64(len(r.Bdl.Raw))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// bundleKey is the replication-table key of a bundle.
func bundleKey(name string) string { return "bundle/" + name }

// resKey is the replication-table key of a resource.
func resKey(id string) string { return "res/" + id }

// devKey is the replication-table key of a host's device profile.
func devKey(host string) string { return "dev/" + host }

// write stamps a locally originated record and replicates it under the
// center's configured write concern.
func (c *Center) write(ctx context.Context, r Record) error {
	return c.writeAll(ctx, func() []Record { return []Record{r} })
}

// writeAll stamps the locally originated records pick returns, in order,
// and replicates them as one push. pick runs under c.mu, so what it reads
// of c.records cannot change before the write lands. Every record is
// checked (Record.check) before any is stamped: a record that fails
// leaves nothing written. Stamping, persisting and installing happen
// under that one critical section: two
// racing writers must produce two *ordered* versions (the second ticks on
// top of the first), never two identical vectors that peers could receive
// in different orders and diverge on. Every record is persisted, in
// order, before any is installed in memory, so a refused persist leaves
// the center's view untouched. Snapshot records additionally get the next
// capture sequence under the same section.
//
// Under a synchronous write concern the call blocks until enough peers
// acked the push (or the ack window closes, returning ErrNotDurable — the
// write landed locally and anti-entropy keeps retrying delivery).
func (c *Center) writeAll(ctx context.Context, pick func() []Record) error {
	wc := c.cfg.WriteConcern
	reach := -1
	if wc != WriteAsync {
		reach = c.reachablePeers()
	}
	c.mu.Lock()
	recs := pick()
	for _, r := range recs {
		if err := r.check(); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	for i := range recs {
		r := &recs[i]
		prev := c.records[r.Key]
		r.Version = prev.Version.Tick(c.space)
		r.Origin = c.space
		if r.Kind == RecordSnapshot {
			r.Snap.Seq = prev.Snap.Seq + 1
		}
		if err := c.persist(*r, wholeRecord); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	for _, r := range recs {
		if r.Kind == RecordSnapshot && r.Deleted {
			// A graceful-stop tombstone invalidates the durable stash:
			// failover must never restore a deliberately stopped app from
			// its last quorum-acked snapshot.
			delete(c.durable, r.Key)
		}
		c.install(r)
	}
	rep := c.replicateLocked(fedPush, pushMsg{From: c.space, Records: recs}, recs[len(recs)-1].Key, wc, reach)
	c.mu.Unlock()
	return c.verdict(ctx, rep, nil)
}

// apply installs a remotely received record if its version wins.
// Concurrent versions resolve deterministically (higher origin space
// wins) with the merged vector, so every center converges to the same
// state regardless of delivery order. A record a local write of its kind
// would refuse (Record.check) is refused before anything is compared or
// stored: a faulty peer's anti-entropy re-offers it, and it is refused
// each time.
func (c *Center) apply(r Record) (bool, error) {
	if err := r.check(); err != nil {
		return false, err
	}
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
				c.install(ex)
				return false, nil
			}
			r.Version = merged
		}
	}
	if err := c.persist(r, wholeRecord); err != nil {
		return false, err
	}
	c.install(r)
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
	return true, nil
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

// check refuses a record a local write of its kind would not make: one
// failing its kind's validation, or stored under a key its body does not
// name (every read looks a record up by the key its body implies). A
// tombstone carries no body beyond its key. Snapshot records are checked
// where their frames are (PutSnapshot, applySnapDelta, loadChain).
func (r Record) check() error {
	key := r.Key
	var err error
	switch r.Kind {
	case RecordApp:
		key, err = r.App.Key(), r.App.Validate()
	case RecordResource:
		key, err = resKey(r.Res.ID), r.Res.Validate()
	case RecordDevice:
		key = devKey(r.Dev.Host)
		if r.Dev.Host == "" {
			err = fmt.Errorf("cluster: device profile has no host")
		}
	case RecordBundle:
		key = bundleKey(r.Bdl.Name)
		if r.Bdl.Name == "" {
			err = fmt.Errorf("cluster: bundle has no name")
		} else if len(r.Bdl.Raw) == 0 {
			err = fmt.Errorf("cluster: bundle %q is empty", r.Bdl.Name)
		}
	case RecordSnapshot:
	default:
		return fmt.Errorf("cluster: unknown record kind %d", r.Kind)
	}
	switch {
	case r.Deleted:
		return nil
	case err != nil:
		return err
	case key != r.Key:
		return fmt.Errorf("cluster: record %q holds the body of %q", r.Key, key)
	}
	return nil
}

// install stores r in the replication table — the only code that does —
// and keeps c.hosted in step with it. Callers hold c.mu and have decided
// that r replaces what the table holds.
func (c *Center) install(r Record) {
	if old, ok := c.records[r.Key]; ok && old.Kind == RecordResource && !old.Deleted {
		keys := c.hosted[old.Res.Host]
		if i, found := slices.BinarySearch(keys, r.Key); found {
			if keys = slices.Delete(keys, i, i+1); len(keys) == 0 {
				delete(c.hosted, old.Res.Host)
			} else {
				c.hosted[old.Res.Host] = keys
			}
		}
	}
	c.records[r.Key] = r
	if r.Kind == RecordResource && !r.Deleted {
		keys := c.hosted[r.Res.Host]
		if i, found := slices.BinarySearch(keys, r.Key); !found {
			c.hosted[r.Res.Host] = slices.Insert(keys, i, r.Key)
		}
	}
}

// --- Read API (the records hold the converged union; Catalog shape). ---

// LookupApp reads one installation record from the replicated view.
func (c *Center) LookupApp(_ context.Context, name, host string) (registry.AppRecord, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, found := c.appLocked(name, host)
	return rec, found, nil
}

// appLocked returns a copy of the live installation record of name on
// host. Callers hold c.mu.
func (c *Center) appLocked(name, host string) (registry.AppRecord, bool) {
	r, ok := c.records[registry.AppRecord{Name: name, Host: host}.Key()]
	if !ok || r.Deleted || r.Kind != RecordApp {
		return registry.AppRecord{}, false
	}
	return r.App.Clone(), true
}

// Apps returns a copy of every live installation record keep accepts
// (every one, when keep is nil), sorted by host, then name: the control
// plane's `ps` view, and failover's dead-host and candidate scans. keep
// runs outside the center's lock on a record that shares the table's
// slices; it must not modify it.
func (c *Center) Apps(keep func(registry.AppRecord) bool) []registry.AppRecord {
	var live []registry.AppRecord
	c.mu.Lock()
	for _, r := range c.records {
		if r.Kind == RecordApp && !r.Deleted {
			live = append(live, r.App) // a stored record's slices are never written
		}
	}
	c.mu.Unlock()
	out := live[:0]
	for _, rec := range live {
		if keep == nil || keep(rec) {
			out = append(out, rec.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Device returns a host's device profile from the replicated view.
func (c *Center) Device(host string) (wsdl.DeviceProfile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.records[devKey(host)]
	if !ok || r.Deleted || r.Kind != RecordDevice {
		return wsdl.DeviceProfile{}, false
	}
	return r.Dev, true
}

// ResourcesOnHost returns copies of the resource descriptions hosted on
// host, sorted by ID.
func (c *Center) ResourcesOnHost(host string) []owl.Resource {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resourcesLocked(host)
}

// resourcesLocked copies host's resources out of the records c.hosted
// names. Callers hold c.mu.
func (c *Center) resourcesLocked(host string) []owl.Resource {
	keys := c.hosted[host]
	out := make([]owl.Resource, len(keys))
	for i, k := range keys {
		out[i] = c.records[k].Res
		out[i].Attrs = maps.Clone(out[i].Attrs)
	}
	return out
}

// PlanRebinding answers the rebinding question for a source resource
// against a destination host's inventory, using the given match mode.
func (c *Center) PlanRebinding(src owl.Resource, destHost string, mode owl.MatchMode) owl.Rebinding {
	return rebind([]owl.Resource{src}, c.ResourcesOnHost(destHost), mode)[0]
}

// PlanMove answers a follow-me source's one read against the replicated
// union of every space's records and resources: the application's
// installation at destHost and one rebinding plan per resource, both
// read under one hold of the lock.
func (c *Center) PlanMove(_ context.Context, appName, destHost string, resources []owl.Resource, mode owl.MatchMode) (registry.MovePlan, error) {
	var plan registry.MovePlan
	var avail []owl.Resource
	c.mu.Lock()
	plan.Dest, plan.DestFound = c.appLocked(appName, destHost)
	if len(resources) > 0 {
		avail = c.resourcesLocked(destHost)
	}
	c.mu.Unlock()
	if len(resources) > 0 {
		plan.Rebindings = rebind(resources, avail, mode)
	}
	return plan, nil
}

// rebind plans each resource against avail, a destination's inventory,
// over the standard class tree.
func rebind(resources, avail []owl.Resource, mode owl.MatchMode) []owl.Rebinding {
	m := owl.NewMatcher(owl.Classes(), mode)
	plans := make([]owl.Rebinding, len(resources))
	for i, res := range resources {
		plans[i] = m.PlanRebinding(res, avail)
	}
	return plans
}

// Serve binds the registry wire protocol and the snapshot ops onto ep —
// the only server of either. Reads come from the records (the converged
// union); writes are stamped and replicated. The registry wire protocol
// has no reply body for writes, so a durability shortfall cannot be
// reported in-band there; the write landed locally and anti-entropy
// retries delivery, so remote registrations succeed and the shortfall
// surfaces through the center's own durability events. Snapshot puts DO
// carry the verdict back (the put reply's not-durable flag) — remote
// replicators re-queue. Hence state.IgnoreNotDurable on every other write.
func (c *Center) Serve(ep *transport.Endpoint) *Center {
	bg := context.Background()
	ep.Handle(registry.MsgRegisterApp, func(msg transport.Message) ([]byte, error) {
		var rec registry.AppRecord
		if err := transport.DecodeSealed(msg.Payload, &rec); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.RegisterApp(bg, rec))
	})
	ep.Handle(registry.MsgUnregisterApp, func(msg transport.Message) ([]byte, error) {
		var req registry.AppKeyReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.UnregisterApp(bg, req.Name, req.Host))
	})
	ep.Handle(registry.MsgLookupApp, registry.LookupAppHandler(c.LookupApp))
	ep.Handle(registry.MsgRegisterResource, func(msg transport.Message) ([]byte, error) {
		var res owl.Resource
		if err := transport.DecodeSealed(msg.Payload, &res); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.RegisterResource(bg, res))
	})
	ep.Handle(registry.MsgRegisterDevice, func(msg transport.Message) ([]byte, error) {
		var dev wsdl.DeviceProfile
		if err := transport.DecodeSealed(msg.Payload, &dev); err != nil {
			return nil, err
		}
		return nil, state.IgnoreNotDurable(c.RegisterDevice(bg, dev))
	})
	ep.Handle(registry.MsgDevice, func(msg transport.Message) ([]byte, error) {
		var req registry.HostReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		dev, found := c.Device(req.Host)
		return transport.Encode(registry.DeviceReply{Dev: dev, Found: found})
	})
	ep.Handle(registry.MsgPlanRebinding, func(msg transport.Message) ([]byte, error) {
		var req registry.RebindingReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		return transport.Encode(c.PlanRebinding(req.Src, req.DestHost, req.Mode))
	})
	ep.Handle(registry.MsgPlanMove, registry.PlanMoveHandler(c.PlanMove))
	ep.Handle(registry.MsgMoveApp, registry.MoveAppHandler(func(ctx context.Context, rec registry.AppRecord, from string) (bool, error) {
		demoted, err := c.MoveApp(ctx, rec, from)
		return demoted, state.IgnoreNotDurable(err)
	}))
	ep.Handle(registry.MsgListApps, func(msg transport.Message) ([]byte, error) {
		if _, err := transport.Open(msg.Payload); err != nil {
			return nil, err
		}
		return transport.Encode(c.Apps(nil))
	})
	ep.Handle(registry.MsgGetBundle, func(msg transport.Message) ([]byte, error) {
		var req registry.GetBundleReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		raw, found, err := c.GetBundle(bg, req.Name)
		if err != nil {
			return nil, err
		}
		return transport.Encode(registry.GetBundleReply{Raw: raw, Found: found})
	})
	ep.Handle(registry.MsgListBundles, func(msg transport.Message) ([]byte, error) {
		if _, err := transport.Open(msg.Payload); err != nil {
			return nil, err
		}
		infos, err := c.Bundles(bg)
		if err != nil {
			return nil, err
		}
		return transport.Encode(infos)
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
		return c.getSnapshotFast(msg.Payload)
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
// The records are independent, so one that fails — a refused record is
// re-offered by every round — does not hold back the others; the first
// failure is returned.
func (c *Center) pullFrom(ctx context.Context, endpoint string) error {
	var reply digestReply
	err := c.ep.RequestDecode(ctx, endpoint, MsgFedDigest,
		transport.MustEncode(digestMsg{From: c.space, Digest: c.digest()}), &reply)
	if err != nil {
		return err
	}
	for _, r := range reply.Records {
		if _, aerr := c.apply(r); err == nil {
			err = aerr
		}
	}
	return err
}

func (c *Center) handleDigest(msg transport.Message) ([]byte, error) {
	var d digestMsg
	if err := transport.Decode(msg.Payload, &d); err != nil {
		return nil, err
	}
	return transport.Encode(digestReply{Records: c.missingFor(d.Digest)})
}

// handleFedBatch applies a peer's batch in order, one item at a time,
// and answers one result per item: an item that fails is reported in
// its own result, and the items after it still apply.
func (c *Center) handleFedBatch(msg transport.Message) ([]byte, error) {
	items, err := decodeFedBatch(msg.Payload)
	if err != nil {
		return nil, err
	}
	results := make([]string, len(items))
	for i, it := range items {
		var err error
		switch it.kind {
		case fedPush:
			err = c.applyPush(it.payload)
		case fedSnapDelta:
			err = c.applySnapDelta(it.payload)
		case fedDurable:
			err = c.applyDurable(it.payload)
		}
		if err != nil {
			results[i] = err.Error()
		}
	}
	return encodeFedBatchReply(results), nil
}

// applyPush installs a peer's pushed records, in order, each if its
// version wins.
func (c *Center) applyPush(body []byte) error {
	var p pushMsg
	if err := transport.Decode(body, &p); err != nil {
		return err
	}
	for _, r := range p.Records {
		if _, err := c.apply(r); err != nil {
			return err
		}
	}
	return nil
}
