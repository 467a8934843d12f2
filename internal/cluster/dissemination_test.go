package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// queuedUpdate reads one rumor straight out of a node's dissemination
// buffer (tests only).
func queuedUpdate(n *Node, id string) (Member, int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	u, ok := n.queue[id]
	if !ok {
		return Member{}, 0, false
	}
	return u.m, u.transmits, true
}

// queueDepth reads a node's buffer depth (tests only).
func queueDepth(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// drainQueue charges load() until the buffer is empty, simulating the
// node sending enough messages to exhaust every rumor's budget.
func drainQueue(t *testing.T, n *Node) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if len(n.load().updates) == 0 && queueDepth(n) == 0 {
			return
		}
	}
	t.Fatalf("queue never drained: depth %d", queueDepth(n))
}

// TestPiggybackBounded: outgoing payloads carry at most maxPiggyback
// updates no matter how large the table is — the O(1) property the
// scale sweep measures.
func TestPiggybackBounded(t *testing.T) {
	r := newGossipRig(t, 1)
	n := r.nodes[0]
	var table []Member
	for i := 0; i < 200; i++ {
		table = append(table, Member{
			ID:          fmt.Sprintf("x%03d", i),
			Endpoint:    fmt.Sprintf("cluster@x%03d", i),
			Space:       "lab",
			State:       StateAlive,
			Incarnation: 1,
		})
	}
	n.applyTable(table)
	if d := queueDepth(n); d != 201 { // 200 learned + self announcement
		t.Fatalf("queue depth = %d, want 201", d)
	}
	for i := 0; i < 2000; i++ {
		load := n.load()
		if len(load.updates) > maxPiggyback {
			t.Fatalf("message %d carried %d updates, cap is %d", i, len(load.updates), maxPiggyback)
		}
		if queueDepth(n) == 0 {
			return // every rumor sent its budget and was evicted
		}
	}
	t.Fatalf("buffer never emptied; depth still %d", queueDepth(n))
}

// TestRefutationPreemptsQueuedSuspicion: a refutation (alive at a higher
// incarnation) must replace a queued suspicion about the same member and
// reset its transmit count, so the refutation gets a full budget to
// chase the rumor down.
func TestRefutationPreemptsQueuedSuspicion(t *testing.T) {
	r := newGossipRig(t, 2)
	n := r.nodes[0]
	drainQueue(t, n)

	h2 := r.nodes[1].Self()
	n.applyTable([]Member{{ID: h2.ID, Endpoint: h2.Endpoint, Space: h2.Space, State: StateSuspect, Incarnation: h2.Incarnation}})
	if u, _, ok := queuedUpdate(n, h2.ID); !ok || u.State != StateSuspect {
		t.Fatalf("suspicion not queued: %+v", u)
	}
	// Transmit the suspicion a few times so its budget is partly spent.
	for i := 0; i < 2; i++ {
		n.load()
	}
	if _, tx, _ := queuedUpdate(n, h2.ID); tx != 2 {
		t.Fatalf("suspicion transmits = %d, want 2", tx)
	}

	refutation := Member{ID: h2.ID, Endpoint: h2.Endpoint, Space: h2.Space, State: StateAlive, Incarnation: h2.Incarnation + 1}
	n.applyTable([]Member{refutation})
	u, tx, ok := queuedUpdate(n, h2.ID)
	if !ok {
		t.Fatal("refutation not queued")
	}
	if u.State != StateAlive || u.Incarnation != h2.Incarnation+1 {
		t.Fatalf("queued rumor is %+v, want the refutation", u)
	}
	if tx != 0 {
		t.Fatalf("refutation inherited %d transmits, want a fresh budget", tx)
	}
	// The very next message must carry the refutation, not the suspicion.
	load := n.load()
	for _, m := range load.updates {
		if m.ID == h2.ID {
			if m.State != StateAlive {
				t.Fatalf("next message still carries the suspicion: %+v", m)
			}
			return
		}
	}
	t.Fatal("next message did not carry the refutation at all")
}

// TestLeaveCertificateSurvivesBufferEviction: after a graceful leave the
// certificate is eventually evicted from every dissemination buffer —
// but a node that joins later must still learn of the departure, via
// the full-table bootstrap exchange.
func TestLeaveCertificateSurvivesBufferEviction(t *testing.T) {
	r := newGossipRig(t, 3)
	for i := 0; i < 3; i++ {
		r.tickAll()
	}
	r.nodes[2].Leave()
	waitState(t, r, r.nodes[0], "h3", StateDead)
	waitState(t, r, r.nodes[1], "h3", StateDead)

	// Burn through the survivors' buffers until the certificate (and
	// everything else) has exhausted its retransmit budget.
	drainQueue(t, r.nodes[0])
	drainQueue(t, r.nodes[1])

	// A latecomer joins via h1. Its first probe is answered with the
	// full table (unknown sender -> bootstrap), certificate included.
	host := "h4"
	if _, err := r.net.AddHost(host, "lab", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	ep, err := r.fab.Attach(MemberEndpointName(host), host)
	if err != nil {
		t.Fatal(err)
	}
	late := NewNode(Member{ID: host, Space: "lab"}, ep, testConfig())
	late.Join(r.nodes[0].Self())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, ok := late.Member("h3"); ok && m.State == StateDead {
			return
		}
		if time.Now().After(deadline) {
			m, _ := late.Member("h3")
			t.Fatalf("latecomer never learned the leave certificate (last: %+v)", m)
		}
		late.Tick()
		time.Sleep(time.Millisecond)
	}
}

// TestRotationProbesEveryMemberPerTraversal: shuffled round-robin means
// one traversal of the ring probes every live peer exactly once — the
// bounded worst-case detection time random picking cannot give.
func TestRotationProbesEveryMemberPerTraversal(t *testing.T) {
	r := newGossipRig(t, 6)
	n := r.nodes[0]
	for traversal := 0; traversal < 3; traversal++ {
		seen := map[string]int{}
		for i := 0; i < 5; i++ {
			m, ok := n.nextTarget()
			if !ok {
				t.Fatalf("traversal %d ran out of targets at %d", traversal, i)
			}
			seen[m.ID]++
		}
		if len(seen) != 5 {
			t.Fatalf("traversal %d probed %d distinct peers, want 5: %v", traversal, len(seen), seen)
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("traversal %d probed %s %d times", traversal, id, c)
			}
		}
	}
}

// TestRotationInsertsNewMemberMidTraversal: a member learned while a
// traversal is underway is spliced into the unprobed remainder, so it
// is probed within one traversal of being learned.
func TestRotationInsertsNewMemberMidTraversal(t *testing.T) {
	r := newGossipRig(t, 6)
	n := r.nodes[0]
	// Start a traversal and consume two targets.
	for i := 0; i < 2; i++ {
		if _, ok := n.nextTarget(); !ok {
			t.Fatal("ran out of targets")
		}
	}
	n.Join(Member{ID: "h9", Endpoint: MemberEndpointName("h9"), Space: "lab"})
	// The remainder of this traversal (3 original peers + the insert).
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		m, ok := n.nextTarget()
		if !ok {
			t.Fatal("ran out of targets")
		}
		seen[m.ID] = true
	}
	if !seen["h9"] {
		t.Fatalf("h9 not probed within the traversal it was learned in: %v", seen)
	}
}

// TestChurn500MembersZeroFalseConvictions drives a 500-node cluster on
// the simulated network through kills and joins with bounded
// dissemination, and asserts (a) every change converges everywhere and
// (b) no live member is ever convicted — the false-positive property
// the scale sweep measures at the default suspicion timeout.
func TestChurn500MembersZeroFalseConvictions(t *testing.T) {
	const nHosts = 500
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.WithSeed(11))
	fab := transport.NewLocalFabric(net)
	defer fab.Close()

	cfg := testConfig()
	// Probe failures in this rig are netsim's fail-fast host-down errors,
	// never timeouts — so the timeout can be generous enough that a slow
	// race-instrumented run cannot fake a failed probe of a live node.
	cfg.ProbeTimeout = 5 * time.Second
	cfg.SuspicionTimeout = 250 * time.Millisecond // real-time sweeps; churn rounds below run well inside this
	// A tight anti-entropy cadence closes the cold-start tail in a
	// sixteenth of the default's rounds — this test is about churn
	// correctness, not bootstrap latency (the bench measures that).
	cfg.FullSyncEvery = 16

	nodes := make([]*Node, 0, nHosts)
	addNode := func(i int) *Node {
		host := fmt.Sprintf("m%03d", i)
		if _, err := net.AddHost(host, "lab", netsim.Pentium4_1700(), 0); err != nil {
			t.Fatal(err)
		}
		ep, err := fab.Attach(MemberEndpointName(host), host)
		if err != nil {
			t.Fatal(err)
		}
		n := NewNode(Member{ID: host, Space: "lab"}, ep, cfg)
		// Star seeding: everyone knows the first node, plus its ring
		// predecessor — discovery of the rest rides on gossip.
		if len(nodes) > 0 {
			n.Join(nodes[0].Self())
			n.Join(nodes[len(nodes)-1].Self())
		}
		nodes = append(nodes, n)
		return n
	}
	for i := 0; i < nHosts; i++ {
		addNode(i)
	}

	down := map[string]bool{}
	var mu sync.Mutex
	falseConvictions := map[string]string{}
	watch := func(n *Node) {
		n.OnChange(func(_ *Node, m Member) {
			if m.State != StateDead {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if !down[m.ID] {
				falseConvictions[m.ID] = fmt.Sprintf("%s convicted live %s", n.Self().ID, m.ID)
			}
		})
	}
	for _, n := range nodes {
		watch(n)
	}

	tickLive := func() {
		for _, n := range nodes {
			if !down[n.Self().ID] {
				n.Tick()
			}
		}
	}
	countConverged := func(want int) int {
		got := 0
		for _, n := range nodes {
			if down[n.Self().ID] {
				continue
			}
			if len(n.AliveHosts()) == want {
				got++
			}
		}
		return got
	}
	converge := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for round := 0; ; round++ {
			if round%8 == 0 && countConverged(want) == len(nodes)-len(down) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d/%d nodes converged to %d alive",
					what, countConverged(want), len(nodes)-len(down), want)
			}
			tickLive()
		}
	}

	converge(nHosts, "bootstrap")

	// Kill three hosts; every survivor must convict exactly those.
	for _, i := range []int{7, 133, 420} {
		id := nodes[i].Self().ID
		mu.Lock()
		down[id] = true
		mu.Unlock()
		if err := net.SetHostDown(id, true); err != nil {
			t.Fatal(err)
		}
	}
	converge(nHosts-3, "kill")

	// Three more join mid-flight; every survivor must learn them.
	for i := 0; i < 3; i++ {
		watch(addNode(nHosts + i))
	}
	converge(nHosts, "join")

	mu.Lock()
	defer mu.Unlock()
	if len(falseConvictions) != 0 {
		t.Fatalf("false convictions: %v", falseConvictions)
	}
}
