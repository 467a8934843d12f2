package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mdagent/internal/obs"
	"mdagent/internal/transport"
)

// State is a member's health as seen by one node.
type State int

// Member states, in escalation order.
const (
	StateAlive State = iota + 1
	StateSuspect
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Member is one host's entry in the membership table.
type Member struct {
	ID          string // host id
	Endpoint    string // transport endpoint the member's node listens on
	Space       string // smart space the host belongs to
	State       State
	Incarnation uint64 // refutation counter (only the member itself bumps it)
}

// Config parameterizes a cluster deployment: SWIM probe cadence, the
// suspect->dead escalation window, and the federation anti-entropy period.
// The zero value takes the defaults below; tests shrink every interval.
type Config struct {
	// ProbeInterval is the period between SWIM probes (default 100 ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one direct or indirect probe (default 250 ms).
	ProbeTimeout time.Duration
	// SuspicionTimeout is how long a suspect may linger before it is
	// declared dead (default 1 s).
	SuspicionTimeout time.Duration
	// SyncInterval is the federation anti-entropy period (default 250 ms).
	SyncInterval time.Duration
	// Seed feeds probe-target shuffling (default 1).
	Seed int64
	// FullSyncEvery makes every Nth protocol tick a full-table
	// anti-entropy exchange with the probed member, repairing whatever
	// the bounded buffer evicted before it reached everyone (default 64;
	// negative disables).
	FullSyncEvery int

	// ReplicateState opts hosts into the state pipeline: each host's
	// replicator streams its applications' snapshots to its space's
	// registry center (and on to every peer space via federation), and
	// failover restores the freshest snapshot instead of a skeleton.
	ReplicateState bool
	// ReplicateInterval is the snapshot capture period (default 250 ms;
	// meaningful only with ReplicateState).
	ReplicateInterval time.Duration

	// WriteConcern is the federation write durability level: WriteAsync
	// (default) returns as soon as a write lands locally; WriteOne and
	// WriteQuorum block until enough peer centers acknowledged the
	// pushed record or snapshot delta. On shortfall the write still
	// lands locally (anti-entropy retries delivery) and the caller gets
	// ErrNotDurable. Snapshot puts may override it per put.
	WriteConcern WriteConcern
	// AckTimeout bounds the synchronous wait for peer acks on a durable
	// write (default 2 x ProbeTimeout).
	AckTimeout time.Duration
}

// Protocol constants. Nothing ever set these to anything else, so they
// are not Config fields.
const (
	// indirectProbes is how many relays an indirect probe uses.
	indirectProbes = 2
	// deadProbeEvery makes every Nth protocol tick additionally probe one
	// dead member, so a healed partition or restarted peer is rediscovered
	// and its death certificate refuted without manual intervention.
	deadProbeEvery = 8
	// maxPiggyback caps how many membership updates ride on one gossip
	// message. Bounded dissemination: payload size stays O(1) as the
	// cluster grows, where full-table piggybacking was O(N).
	maxPiggyback = 8
	// retransmitMult is λ in the SWIM retransmit budget: a queued update
	// rides along on λ·log₂N messages before the buffer evicts it.
	retransmitMult = 4
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = time.Second
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FullSyncEvery == 0 {
		c.FullSyncEvery = 64
	}
	if c.ReplicateInterval <= 0 {
		c.ReplicateInterval = 250 * time.Millisecond
	}
	if c.WriteConcern == "" {
		c.WriteConcern = WriteAsync
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * c.ProbeTimeout
	}
	return c
}

// Node runs SWIM-style membership for one host: it probes the next peer
// in a shuffled round-robin rotation every ProbeInterval, escalates
// unresponsive peers alive -> suspect -> dead, piggybacks a bounded
// batch of queued membership updates on every probe and ack (see
// dissemination.go), and refutes rumors about itself by bumping its
// incarnation. It runs over any transport endpoint — the in-process
// fabric (where netsim fault injection severs probes) or a TCP node.
type Node struct {
	cfg Config
	ep  *transport.Endpoint

	mu        sync.Mutex
	self      Member
	members   map[string]*memberEntry
	queue     map[string]*qUpdate // bounded dissemination buffer
	rotation  []string            // shuffled probe order
	rotIdx    int
	ticks     uint64 // protocol rounds run (dead-probe + full-sync cadence)
	rng       *rand.Rand
	listeners []func(*Node, Member)
	leaving   bool // set by Leave: stop refuting rumors of our death

	mRounds     *obs.Counter // gossip protocol rounds run
	mBytes      *obs.Counter // gossip payload bytes sent (probes, relays, acks)
	mMsgs       *obs.Counter // gossip messages sent (probes, relays, acks)
	mUpdates    *obs.Counter // membership updates piggybacked on sent messages
	mFullSync   *obs.Counter // full-table exchanges (bootstrap, cadence, rejoin)
	mQueueDepth *obs.Gauge   // rumors currently buffered for dissemination

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type memberEntry struct {
	Member
	suspectSince time.Time
}

// NewNode creates a membership node for host self, serving probes on ep.
// Call Start to begin probing; the node answers peers' probes as soon as
// it is created.
func NewNode(self Member, ep *transport.Endpoint, cfg Config) *Node {
	cfg = cfg.withDefaults()
	self.State = StateAlive
	if self.Incarnation == 0 {
		self.Incarnation = 1
	}
	if self.Endpoint == "" {
		self.Endpoint = ep.Name()
	}
	n := &Node{
		cfg:         cfg,
		ep:          ep,
		self:        self,
		members:     map[string]*memberEntry{self.ID: {Member: self}},
		queue:       make(map[string]*qUpdate),
		rng:         rand.New(rand.NewSource(cfg.Seed + int64(len(self.ID)))),
		stop:        make(chan struct{}),
		mRounds:     obs.Default.Counter("mdagent_gossip_rounds_total", "host", self.ID),
		mBytes:      obs.Default.Counter("mdagent_gossip_bytes_total", "host", self.ID),
		mMsgs:       obs.Default.Counter("mdagent_gossip_msgs_total", "host", self.ID),
		mUpdates:    obs.Default.Counter("mdagent_gossip_updates_total", "host", self.ID),
		mFullSync:   obs.Default.Counter("mdagent_gossip_fullsync_total", "host", self.ID),
		mQueueDepth: obs.Default.Gauge("mdagent_gossip_queue_depth", "host", self.ID),
	}
	// Announce ourselves: the first probes we send carry our own entry.
	n.enqueueLocked(n.self)
	ep.Handle(MsgPing, n.handlePing)
	ep.Handle(MsgPingReq, n.handlePingReq)
	return n
}

// Self returns this node's own membership entry.
func (n *Node) Self() Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self
}

// Join seeds the table with a known peer (assumed alive until probed).
func (n *Node) Join(peer Member) {
	peer.State = StateAlive
	n.applyTable([]Member{peer})
}

// OnChange registers a callback fired (off the node's lock, on the
// probing goroutine) whenever a member transitions state or is first
// learned. The reporting node rides along so listeners can consult its
// view (e.g. HasQuorum) before acting.
func (n *Node) OnChange(f func(*Node, Member)) {
	n.mu.Lock()
	n.listeners = append(n.listeners, f)
	n.mu.Unlock()
}

// Members returns the full table, sorted by id.
func (n *Node) Members() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, e := range n.members {
		out = append(out, e.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Member returns one entry by host id.
func (n *Node) Member(id string) (Member, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.members[id]
	if !ok {
		return Member{}, false
	}
	return e.Member, true
}

// AliveHosts lists the ids of members this node currently believes alive
// (including itself), sorted.
func (n *Node) AliveHosts() []string {
	var out []string
	for _, m := range n.Members() {
		if m.State == StateAlive {
			out = append(out, m.ID)
		}
	}
	return out
}

// HasQuorum reports whether this node sees a strict majority of the known
// membership alive. An isolated node loses quorum and must not act on its
// (necessarily wrong) belief that everyone else died — the guard that
// keeps a crashed-but-running host from re-homing the world onto itself.
func (n *Node) HasQuorum() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	alive, total := 0, 0
	for _, e := range n.members {
		total++
		if e.State == StateAlive {
			alive++
		}
	}
	return alive*2 > total
}

// Start launches the probe loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				n.Tick()
			}
		}
	}()
}

// Stop halts probing. The node still answers peers until its endpoint
// closes.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Tick runs one protocol round synchronously: sweep overdue suspects,
// every deadProbeEvery rounds ping one dead member (partition-heal
// rediscovery), then probe the next live member in the shuffled rotation.
// Every FullSyncEvery rounds the probe is a full-table anti-entropy
// exchange instead of a bounded one. Tests drive it directly for
// determinism; Start calls it on a ticker.
func (n *Node) Tick() {
	n.mRounds.Inc()
	n.sweep(time.Now())
	n.mu.Lock()
	n.ticks++
	probeDead := n.ticks%deadProbeEvery == 0
	fullSync := n.cfg.FullSyncEvery > 0 && n.ticks%uint64(n.cfg.FullSyncEvery) == 0
	n.mu.Unlock()
	if probeDead {
		if dead, ok := n.deadTarget(); ok {
			// Best-effort: the ping explicitly carries our entry for the
			// peer (its death certificate); a peer that is actually back
			// refutes it by bumping its incarnation, and the refutation in
			// its ack clears the certificate here, whence gossip spreads
			// it. Without this, two sides of a healed partition would
			// never probe each other again. Off the protocol round: in the
			// common case the member really is dead and the ping eats the
			// full ProbeTimeout, which must not stall live probing.
			// Untracked on purpose: a probe racing shutdown just reports a
			// closed endpoint.
			load := n.load(dead)
			go n.ping(dead.Endpoint, load)
		}
	}
	target, ok := n.nextTarget()
	if !ok {
		return
	}
	n.probe(target, fullSync)
}

// deadTarget picks one dead member at random.
func (n *Node) deadTarget() (Member, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var pool []Member
	for id, e := range n.members {
		if id != n.self.ID && e.State == StateDead {
			pool = append(pool, e.Member)
		}
	}
	if len(pool) == 0 {
		return Member{}, false
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
	return pool[n.rng.Intn(len(pool))], true
}

// ConfirmDead re-probes a member this node believes dead, directly and
// then through indirect relays (a severed reporter->member link must not
// "confirm" a live member), as a last check before acting on the
// conviction (e.g. re-homing its applications). An answered probe
// applies the ack's table and then re-reads the entry: a falsely
// convicted live member refutes in the ack (alive at a higher
// incarnation), clearing the conviction — not confirmed. A gracefully
// leaving member also answers for a moment, but its ack carries its own
// death certificate, so the entry stays dead — confirmed, and failover
// may proceed without waiting for its process to exit. A genuinely
// crashed host fails fast (connection refused / netsim host-down), so
// the common failover path pays almost nothing.
func (n *Node) ConfirmDead(id string) bool {
	n.mu.Lock()
	e, ok := n.members[id]
	if !ok {
		n.mu.Unlock()
		return false // unknown member: nothing to act on
	}
	if e.State != StateDead {
		n.mu.Unlock()
		return false // already cleared
	}
	target := e.Member
	n.mu.Unlock()
	// The probe must carry the conviction itself: the certificate is what
	// a falsely convicted member refutes in its ack.
	load := n.load(target)
	if n.ping(target.Endpoint, load) {
		return n.stillDead(id)
	}
	for _, relay := range n.relays(id) {
		if n.pingVia(relay, target, load) {
			return n.stillDead(id)
		}
	}
	return true
}

// stillDead reports whether id remains convicted after an answered
// confirm-probe applied the ack's table.
func (n *Node) stillDead(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.members[id]
	return ok && e.State == StateDead
}

// Rejoin announces this node after a restart or a healed partition: it
// bumps our incarnation past rumors in flight and synchronously pings
// every known member — dead ones included — so death certificates on both
// sides are refuted immediately instead of waiting out the dead-probe
// cadence. A second round runs when the first taught us of a certificate
// our bumped incarnation did not yet clear (a restarted node rejoining a
// cluster that convicted its previous life at a higher incarnation).
func (n *Node) Rejoin() {
	n.mu.Lock()
	n.self.Incarnation++
	n.members[n.self.ID].Member = n.self
	n.enqueueLocked(n.self)
	n.mu.Unlock()
	for round := 0; round < 2; round++ {
		before := n.Self().Incarnation
		for _, m := range n.Members() {
			if m.ID == n.Self().ID {
				continue
			}
			// Full-table on purpose: a rejoin is anti-entropy — both
			// sides reconcile everything, certificates included.
			n.ping(m.Endpoint, n.fullLoad())
		}
		if n.Self().Incarnation == before {
			return // no peer held a certificate we had not already beaten
		}
	}
}

// Leave announces an intentional departure: it publishes our own death
// certificate at the current incarnation and synchronously pings every
// alive peer with it, so the cluster convicts this host immediately
// instead of burning a probe round plus the full suspicion window. The
// certificate uses the normal dead-overrides-alive precedence (no new
// message type), and the leaving flag stops applyTable from refuting the
// echo of our own certificate in the acks. Call before Stop on a clean
// shutdown; a crashed host simply never calls it.
func (n *Node) Leave() {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return
	}
	n.leaving = true
	n.self.State = StateDead
	n.members[n.self.ID].Member = n.self
	n.enqueueLocked(n.self)
	cert := n.self
	var peers []Member
	for id, e := range n.members {
		if id == n.self.ID || e.State != StateAlive {
			continue
		}
		peers = append(peers, e.Member)
	}
	n.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	for _, p := range peers {
		// Each ping must carry the certificate itself; the queued copy
		// alone could be crowded out of a bounded batch by other rumors.
		n.ping(p.Endpoint, n.load(cert))
	}
}

// nextTarget picks the next probeable member in round-robin order over a
// shuffled rotation (SWIM's bounded-staleness target selection).
func (n *Node) nextTarget() (Member, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rotIdx >= len(n.rotation) {
		n.rotation = n.rotation[:0]
		for id, e := range n.members {
			if id == n.self.ID || e.State == StateDead {
				continue
			}
			n.rotation = append(n.rotation, id)
		}
		sort.Strings(n.rotation)
		n.rng.Shuffle(len(n.rotation), func(i, j int) {
			n.rotation[i], n.rotation[j] = n.rotation[j], n.rotation[i]
		})
		n.rotIdx = 0
	}
	for n.rotIdx < len(n.rotation) {
		id := n.rotation[n.rotIdx]
		n.rotIdx++
		if e, ok := n.members[id]; ok && e.State != StateDead {
			return e.Member, true
		}
	}
	return Member{}, false
}

// probe pings target directly, falling back to indirect probes through
// indirectProbes relays; on total failure the target becomes a suspect.
// A full probe exchanges whole tables (the anti-entropy cadence).
func (n *Node) probe(target Member, full bool) {
	load := n.load()
	if full {
		load = n.fullLoad()
	}
	if n.ping(target.Endpoint, load) {
		return
	}
	for _, relay := range n.relays(target.ID) {
		if n.pingVia(relay, target, load) {
			return
		}
	}
	n.markSuspect(target.ID)
}

// countSend charges one outgoing gossip message to the node's meters.
func (n *Node) countSend(payloadLen, updates int, full bool) {
	n.mBytes.Add(int64(payloadLen))
	n.mMsgs.Inc()
	n.mUpdates.Add(int64(updates))
	if full {
		n.mFullSync.Inc()
	}
}

// ping sends one direct probe and merges the ack's payload.
func (n *Node) ping(endpoint string, load gossipLoad) bool {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeTimeout)
	defer cancel()
	payload := transport.Seal(transport.MustEncode(pingMsg{
		From: n.self.ID, Updates: load.updates, Full: load.full, Table: load.table,
	}))
	n.countSend(len(payload), len(load.updates), load.full)
	var ack ackMsg
	err := n.ep.RequestDecode(ctx, endpoint, MsgPing, payload, &ack)
	if err != nil {
		return false
	}
	n.absorb(ack.Updates, ack.Table, ack.Full)
	return true
}

// pingVia asks relay to probe target on our behalf.
func (n *Node) pingVia(relay, target Member, load gossipLoad) bool {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeTimeout)
	defer cancel()
	payload := transport.Seal(transport.MustEncode(pingReqMsg{
		From: n.self.ID, Target: target, Updates: load.updates, Full: load.full, Table: load.table,
	}))
	n.countSend(len(payload), len(load.updates), load.full)
	var ack ackMsg
	err := n.ep.RequestDecode(ctx, relay.Endpoint, MsgPingReq, payload, &ack)
	if err != nil || !ack.OK {
		return false
	}
	n.absorb(ack.Updates, ack.Table, ack.Full)
	return true
}

// relays picks up to indirectProbes alive members other than self and the
// target.
func (n *Node) relays(targetID string) []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	var pool []Member
	for id, e := range n.members {
		if id == n.self.ID || id == targetID || e.State != StateAlive {
			continue
		}
		pool = append(pool, e.Member)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
	n.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > indirectProbes {
		pool = pool[:indirectProbes]
	}
	return pool
}

// markSuspect escalates a member to suspect (a no-op if it is already
// suspect or dead).
func (n *Node) markSuspect(id string) {
	n.mu.Lock()
	e, ok := n.members[id]
	if !ok || e.State != StateAlive {
		n.mu.Unlock()
		return
	}
	e.State = StateSuspect
	e.suspectSince = time.Now()
	n.enqueueLocked(e.Member)
	changed := e.Member
	n.mu.Unlock()
	n.notify(changed)
}

// sweep declares overdue suspects dead.
func (n *Node) sweep(now time.Time) {
	n.mu.Lock()
	var dead []Member
	for _, e := range n.members {
		if e.State == StateSuspect && now.Sub(e.suspectSince) >= n.cfg.SuspicionTimeout {
			e.State = StateDead
			n.enqueueLocked(e.Member)
			dead = append(dead, e.Member)
		}
	}
	n.mu.Unlock()
	for _, m := range dead {
		n.notify(m)
	}
}

// tableSnapshot copies the membership table for a full-table exchange.
func (n *Node) tableSnapshot() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tableSnapshotLocked()
}

func (n *Node) tableSnapshotLocked() []Member {
	out := make([]Member, 0, len(n.members))
	for _, e := range n.members {
		out = append(out, e.Member)
	}
	return out
}

// applyTable merges received rumor updates under SWIM's precedence
// rules: higher incarnation wins; at equal incarnation dead > suspect >
// alive; dead additionally overrides any lower incarnation (a death
// certificate does not expire). Rumors about self that are not alive
// are refuted by bumping our incarnation past them. Every accepted
// change — and every refutation — re-enters the dissemination buffer,
// which is how a rumor crosses the cluster in O(log N) rounds without
// anyone sending a full table.
func (n *Node) applyTable(table []Member) { n.merge(table, true) }

// applyFull merges a full-table anti-entropy exchange. Unlike rumor
// updates, what it teaches is not re-queued for broadcast (see absorb);
// refutations of rumors about self still are — they originate here.
func (n *Node) applyFull(table []Member) { n.merge(table, false) }

func (n *Node) merge(table []Member, requeue bool) {
	n.mu.Lock()
	var changed []Member
	for _, m := range table {
		if m.ID == n.self.ID {
			// A leaving node published its own death certificate on
			// purpose; refuting the echo would resurrect it.
			if !n.leaving && m.State != StateAlive && m.Incarnation >= n.self.Incarnation {
				n.self.Incarnation = m.Incarnation + 1
				n.members[n.self.ID].Member = n.self
				// The refutation preempts the queued rumor about us with
				// a fresh budget — it must outrun the suspicion.
				n.enqueueLocked(n.self)
			}
			continue
		}
		e, known := n.members[m.ID]
		if !known {
			e = &memberEntry{Member: m}
			if m.State == StateSuspect {
				e.suspectSince = time.Now()
			}
			n.members[m.ID] = e
			if requeue {
				n.enqueueLocked(e.Member)
			}
			n.insertRotationLocked(m.ID)
			changed = append(changed, e.Member)
			continue
		}
		if !supersedes(m, e.Member) {
			continue
		}
		prev := e.State
		prevInc := e.Incarnation
		e.Member = m
		if m.State == StateSuspect && prev != StateSuspect {
			e.suspectSince = time.Now()
		}
		if requeue && (m.State != prev || m.Incarnation != prevInc) {
			n.enqueueLocked(e.Member)
		}
		if m.State != prev {
			changed = append(changed, e.Member)
		}
	}
	n.mu.Unlock()
	for _, m := range changed {
		n.notify(m)
	}
}

// insertRotationLocked splices a newly learned member into the not-yet-
// probed remainder of the current rotation at a random position, so it
// is probed within one traversal of the ring instead of waiting out the
// current one. Callers hold n.mu.
func (n *Node) insertRotationLocked(id string) {
	if n.rotIdx >= len(n.rotation) {
		return // rotation exhausted; the rebuild picks the member up
	}
	pos := n.rotIdx + n.rng.Intn(len(n.rotation)-n.rotIdx+1)
	n.rotation = append(n.rotation, "")
	copy(n.rotation[pos+1:], n.rotation[pos:])
	n.rotation[pos] = id
}

// supersedes reports whether update m should replace current.
func supersedes(m, current Member) bool {
	if current.State == StateDead {
		// Only a fresh incarnation (a restarted or refuted member) clears
		// a death certificate.
		return m.State == StateAlive && m.Incarnation > current.Incarnation
	}
	if m.State == StateDead {
		// A death certificate overrides suspicion unconditionally, and
		// overrides alive at the same or lower incarnation — but NOT a
		// refuted alive at a higher incarnation. Without the incarnation
		// check, stale certificates circulating after a healed partition
		// keep re-killing members that already refuted them, and the
		// membership ping-pongs dead<->alive forever.
		if current.State == StateAlive {
			return m.Incarnation >= current.Incarnation
		}
		return true
	}
	if m.Incarnation != current.Incarnation {
		return m.Incarnation > current.Incarnation
	}
	return statePrecedence(m.State) > statePrecedence(current.State)
}

func statePrecedence(s State) int {
	switch s {
	case StateAlive:
		return 0
	case StateSuspect:
		return 1
	case StateDead:
		return 2
	}
	return -1
}

func (n *Node) notify(m Member) {
	n.mu.Lock()
	ls := make([]func(*Node, Member), len(n.listeners))
	copy(ls, n.listeners)
	n.mu.Unlock()
	for _, f := range ls {
		f(n, m)
	}
}

// ack builds a probe reply. A full exchange (or a probe from a sender
// we do not know — join bootstrap) is answered with the whole table;
// otherwise the ack leads with our own entry (the O(1) piece
// refutation and leave certificates depend on) plus any must-carry
// entries, followed by the bounded update selection.
func (n *Node) ack(ok, full bool, must ...Member) ([]byte, error) {
	n.mu.Lock()
	var a ackMsg
	if full {
		a = ackMsg{OK: ok, Full: true, Table: n.tableSnapshotLocked()}
	} else {
		load := n.loadLocked(append([]Member{n.self}, must...)...)
		a = ackMsg{OK: ok, Updates: load.updates, Full: load.full, Table: load.table}
	}
	n.mu.Unlock()
	out, err := transport.Encode(a)
	if err == nil {
		n.countSend(len(out), len(a.Updates), a.Full)
	}
	return out, err
}

// knows reports whether id is in the table.
func (n *Node) knows(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.members[id]
	return ok
}

// handlePing answers a direct probe: merge the sender's payload, ack
// with ours.
func (n *Node) handlePing(msg transport.Message) ([]byte, error) {
	var p pingMsg
	if err := transport.DecodeSealed(msg.Payload, &p); err != nil {
		return nil, err
	}
	full := p.Full || !n.knows(p.From)
	n.absorb(p.Updates, p.Table, p.Full)
	return n.ack(true, full)
}

// handlePingReq probes the requested target on the asker's behalf. The
// ack carries our entry for the target so the asker learns what the
// probe taught us (most importantly a refutation the target pushed into
// our table), not just a bare OK.
func (n *Node) handlePingReq(msg transport.Message) ([]byte, error) {
	var p pingReqMsg
	if err := transport.DecodeSealed(msg.Payload, &p); err != nil {
		return nil, err
	}
	full := p.Full || !n.knows(p.From)
	n.absorb(p.Updates, p.Table, p.Full)
	ok := n.ping(p.Target.Endpoint, n.load())
	var must []Member
	if e, found := n.Member(p.Target.ID); found {
		must = append(must, e)
	}
	return n.ack(ok, full, must...)
}
