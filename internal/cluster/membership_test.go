package cluster

import (
	"fmt"
	"testing"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// testConfig shrinks every interval so suspect->dead plays out in tens of
// milliseconds of wall time.
func testConfig() Config {
	return Config{
		ProbeInterval:    2 * time.Millisecond,
		ProbeTimeout:     20 * time.Millisecond,
		SuspicionTimeout: 30 * time.Millisecond,
		SyncInterval:     5 * time.Millisecond,
		Seed:             7,
	}
}

// gossipRig is N membership nodes on one local fabric, each endpoint
// pinned to its own netsim host so fault injection severs its probes.
type gossipRig struct {
	net   *netsim.Network
	fab   *transport.LocalFabric
	nodes []*Node
}

func newGossipRig(t *testing.T, n int) *gossipRig {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.WithSeed(3))
	fab := transport.NewLocalFabric(net)
	t.Cleanup(func() { fab.Close() })
	r := &gossipRig{net: net, fab: fab}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("h%d", i+1)
		if _, err := net.AddHost(host, "lab", netsim.Pentium4_1700(), 0); err != nil {
			t.Fatal(err)
		}
		ep, err := fab.Attach(MemberEndpointName(host), host)
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(Member{ID: host, Space: "lab"}, ep, testConfig())
		for _, peer := range r.nodes {
			node.Join(peer.Self())
			peer.Join(node.Self())
		}
		r.nodes = append(r.nodes, node)
	}
	return r
}

// tickAll runs one synchronous protocol round on every node.
func (r *gossipRig) tickAll() {
	for _, n := range r.nodes {
		n.Tick()
	}
}

// waitState polls on manual ticks until observer sees subject in want.
func waitState(t *testing.T, r *gossipRig, observer *Node, subject string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, ok := observer.Member(subject); ok && m.State == want {
			return
		}
		if time.Now().After(deadline) {
			m, _ := observer.Member(subject)
			t.Fatalf("%s never saw %s as %v (last: %+v)", observer.Self().ID, subject, want, m)
		}
		r.tickAll()
		time.Sleep(time.Millisecond)
	}
}

func TestMembershipConvergesAlive(t *testing.T) {
	r := newGossipRig(t, 3)
	for _, n := range r.nodes {
		n.Start()
	}
	defer func() {
		for _, n := range r.nodes {
			n.Stop()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		converged := true
		for _, n := range r.nodes {
			if len(n.AliveHosts()) != 3 {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range r.nodes {
				t.Logf("%s sees alive: %v", n.Self().ID, n.AliveHosts())
			}
			t.Fatal("membership never converged to 3 alive")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFailureDetectionSuspectThenDead(t *testing.T) {
	r := newGossipRig(t, 3)
	// Let everyone verify everyone once.
	for i := 0; i < 3; i++ {
		r.tickAll()
	}
	var transitions []State
	r.nodes[0].OnChange(func(_ *Node, m Member) {
		if m.ID == "h3" {
			transitions = append(transitions, m.State)
		}
	})
	if err := r.net.SetHostDown("h3", true); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, r.nodes[0], "h3", StateDead)
	// The escalation must have passed through suspect before dead.
	if len(transitions) < 2 || transitions[0] != StateSuspect || transitions[len(transitions)-1] != StateDead {
		t.Fatalf("h3 transitions on h1 = %v, want [suspect ... dead]", transitions)
	}
	// Gossip spreads the death certificate to the other survivor too.
	waitState(t, r, r.nodes[1], "h3", StateDead)
}

func TestDeadCertificateSticksWithoutRejoin(t *testing.T) {
	r := newGossipRig(t, 3)
	for i := 0; i < 3; i++ {
		r.tickAll()
	}
	if err := r.net.SetHostDown("h3", true); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, r.nodes[0], "h3", StateDead)
	// Network repaired, but h3 keeps its old incarnation: the certificate
	// holds until h3 refutes it (next round of probes reaches h3, which
	// bumps its incarnation and gossips alive again).
	if err := r.net.SetHostDown("h3", false); err != nil {
		t.Fatal(err)
	}
	if m, _ := r.nodes[0].Member("h3"); m.State != StateDead {
		t.Fatalf("death certificate dropped without refutation: %+v", m)
	}
}

func TestSuspicionRefutedByIncarnation(t *testing.T) {
	r := newGossipRig(t, 2)
	for i := 0; i < 2; i++ {
		r.tickAll()
	}
	// Plant a false rumor at h1: h2 is suspect at its current incarnation.
	h2 := r.nodes[1].Self()
	r.nodes[0].applyTable([]Member{{ID: h2.ID, Endpoint: h2.Endpoint, State: StateSuspect, Incarnation: h2.Incarnation}})
	if m, _ := r.nodes[0].Member("h2"); m.State != StateSuspect {
		t.Fatalf("rumor not planted: %+v", m)
	}
	// h1's next probe piggybacks the rumor; h2 refutes with a higher
	// incarnation, which the ack carries straight back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.nodes[0].Tick()
		if m, _ := r.nodes[0].Member("h2"); m.State == StateAlive && m.Incarnation > h2.Incarnation {
			return
		}
		if time.Now().After(deadline) {
			m, _ := r.nodes[0].Member("h2")
			t.Fatalf("suspicion never refuted: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIndirectProbeSurvivesAsymmetricPartition(t *testing.T) {
	r := newGossipRig(t, 3)
	for i := 0; i < 3; i++ {
		r.tickAll()
	}
	// h1 and h2 cannot talk directly, but h3 reaches both: SWIM's
	// ping-req through h3 must keep h2 alive in h1's view.
	r.net.Partition([]string{"h1"}, []string{"h2"})
	for i := 0; i < 30; i++ {
		r.tickAll()
		time.Sleep(time.Millisecond)
	}
	if m, _ := r.nodes[0].Member("h2"); m.State != StateAlive {
		t.Fatalf("h1 lost h2 despite relay path via h3: %+v", m)
	}
	if m, _ := r.nodes[1].Member("h1"); m.State != StateAlive {
		t.Fatalf("h2 lost h1 despite relay path via h3: %+v", m)
	}
}

func TestQuorumLostWhenIsolated(t *testing.T) {
	r := newGossipRig(t, 3)
	for i := 0; i < 3; i++ {
		r.tickAll()
	}
	if !r.nodes[0].HasQuorum() {
		t.Fatal("h1 should have quorum while everyone is alive")
	}
	// Isolate h1: from its own vantage point everyone else dies, which
	// must cost it quorum — the guard against split-brain re-homing.
	if err := r.net.SetHostDown("h1", true); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.nodes[0].HasQuorum() {
		if time.Now().After(deadline) {
			t.Fatalf("isolated h1 kept quorum; sees alive %v", r.nodes[0].AliveHosts())
		}
		r.nodes[0].Tick()
		time.Sleep(time.Millisecond)
	}
	// The survivors keep quorum (they see 2 of 3 alive).
	waitSurvivors := time.Now().Add(5 * time.Second)
	for {
		if m, ok := r.nodes[1].Member("h1"); ok && m.State == StateDead {
			break
		}
		if time.Now().After(waitSurvivors) {
			t.Fatal("survivors never declared h1 dead")
		}
		r.nodes[1].Tick()
		r.nodes[2].Tick()
		time.Sleep(time.Millisecond)
	}
	if !r.nodes[1].HasQuorum() || !r.nodes[2].HasQuorum() {
		t.Fatal("survivors lost quorum despite majority alive")
	}
}

// TestRejoinClearsDeathCertificates drives the partition-healing path: a
// convicted host comes back, calls Rejoin, and both sides' death
// certificates clear without manual intervention.
func TestRejoinClearsDeathCertificates(t *testing.T) {
	r := newGossipRig(t, 3)
	for i := 0; i < 3; i++ {
		r.tickAll()
	}
	if err := r.net.SetHostDown("h3", true); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, r.nodes[0], "h3", StateDead)
	waitState(t, r, r.nodes[1], "h3", StateDead)
	// During its isolation, h3 convicted the others too.
	waitState(t, r, r.nodes[2], "h1", StateDead)
	waitState(t, r, r.nodes[2], "h2", StateDead)

	if err := r.net.SetHostDown("h3", false); err != nil {
		t.Fatal(err)
	}
	r.nodes[2].Rejoin()

	// Rejoin pings every member directly: the survivors learn h3 is back
	// (alive at a bumped incarnation beats the certificate)...
	for _, observer := range []int{0, 1} {
		if m, _ := r.nodes[observer].Member("h3"); m.State != StateAlive {
			t.Fatalf("h%d still holds h3's death certificate after Rejoin: %+v", observer+1, m)
		}
	}
	// ...and the acks carried the survivors' refutations back to h3.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(r.nodes[2].AliveHosts()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("h3 never cleared its certificates; sees alive %v", r.nodes[2].AliveHosts())
		}
		r.tickAll()
		time.Sleep(time.Millisecond)
	}
}

// TestDeadProbeHealsPartitionWithoutRejoin: after a symmetric partition
// heals, the periodic dead-member probe (deadProbeEvery) alone
// must rediscover the other side — no explicit Rejoin call — because the
// regular rotation never probes members marked dead.
func TestDeadProbeHealsPartitionWithoutRejoin(t *testing.T) {
	r := newGossipRig(t, 4)
	for i := 0; i < 4; i++ {
		r.tickAll()
	}
	r.net.Partition([]string{"h1", "h2"}, []string{"h3", "h4"})
	waitState(t, r, r.nodes[0], "h3", StateDead)
	waitState(t, r, r.nodes[0], "h4", StateDead)
	waitState(t, r, r.nodes[2], "h1", StateDead)
	waitState(t, r, r.nodes[2], "h2", StateDead)

	r.net.HealPartition()
	deadline := time.Now().Add(10 * time.Second)
	for {
		healed := true
		for _, n := range r.nodes {
			if len(n.AliveHosts()) != 4 {
				healed = false
				break
			}
		}
		if healed {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range r.nodes {
				t.Logf("%s sees alive: %v", n.Self().ID, n.AliveHosts())
			}
			t.Fatal("membership never healed after the partition")
		}
		r.tickAll()
		time.Sleep(time.Millisecond)
	}
}
