package bench

import (
	"fmt"
	"sync"
	"time"

	"mdagent/internal/cluster"
	"mdagent/internal/netsim"
	"mdagent/internal/obs"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// MembersResult is one membership scale experiment: N bare SWIM nodes on
// the simulated network, driven by synchronous protocol rounds, with
// gossip traffic metered through the obs counters. Rounds are the
// scale-free unit (one round = every node runs one protocol tick); wall
// durations appear only where the protocol itself is wall-clocked (the
// suspicion window).
type MembersResult struct {
	Hosts  int
	Config cluster.Config

	BootstrapRounds int // star-seeded cold start -> everyone sees everyone

	// Steady-state gossip cost over a fixed round window.
	GossipMsgs      int64   // messages sent in the window (probes + acks)
	GossipBytes     int64   // payload bytes in the window
	BytesPerMsg     float64 // the bounded-payload property: flat in N
	UpdatesPerMsg   float64 // piggybacked updates per message
	BytesPerHostSec float64 // at the configured ProbeInterval cadence

	JoinRounds int // new node announced -> every node sees it alive

	KillRounds int           // host killed -> every survivor convicts it
	KillWall   time.Duration // same edge in wall time (includes suspicion window)

	FalseSuspects    int // live members reported suspect, whole run
	FalseConvictions int // live members reported dead, whole run
}

// MembersConfig is the gossip configuration the scale sweep runs at: the
// default dissemination knobs (maxPiggyback 8, λ=4, full sync every 64
// rounds), a suspicion window of 150 ms so one kill experiment stays
// fast, and a probe timeout far above any real delay — in this rig a
// probe fails only with netsim's fail-fast host-down error, so a slow
// instrumented run cannot fake a failed probe of a live node.
func MembersConfig() cluster.Config {
	return cluster.Config{
		ProbeInterval:    100 * time.Millisecond, // meters BytesPerHostSec; rounds are driven manually
		ProbeTimeout:     5 * time.Second,
		SuspicionTimeout: 150 * time.Millisecond,
		Seed:             17,
	}
}

// steadyRounds is the measurement window: long enough to amortize any
// rumor tail left over from bootstrap, short enough that a 1,000-host
// sweep finishes in seconds.
const steadyRounds = 30

// RunMembers runs the membership scale experiment at n hosts. Phases:
// star-seeded bootstrap to full convergence, a steady-state window
// metering gossip bytes and messages, one join (convergence measured in
// rounds), and one kill (rounds + wall time to unanimous conviction).
// Any suspect or dead report about a live member anywhere in the run
// counts as a false positive.
func RunMembers(n int, cfg cluster.Config) (MembersResult, error) {
	if n < 3 {
		return MembersResult{}, fmt.Errorf("bench: members needs >= 3 hosts, got %d", n)
	}
	res := MembersResult{Hosts: n, Config: cfg}

	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.WithSeed(17))
	fab := transport.NewLocalFabric(net)
	defer fab.Close()

	var (
		mu    sync.Mutex
		down  = map[string]bool{}
		nodes []*cluster.Node
	)
	watch := func(node *cluster.Node) {
		node.OnChange(func(_ *cluster.Node, m cluster.Member) {
			if m.State == cluster.StateAlive {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if down[m.ID] {
				return
			}
			if m.State == cluster.StateSuspect {
				res.FalseSuspects++
			} else {
				res.FalseConvictions++
			}
		})
	}
	addNode := func(i int) (*cluster.Node, error) {
		host := fmt.Sprintf("sweep%d-n%04d", n, i)
		if _, err := net.AddHost(host, "lab", netsim.Pentium4_1700(), 0); err != nil {
			return nil, err
		}
		ep, err := fab.Attach(cluster.MemberEndpointName(host), host)
		if err != nil {
			return nil, err
		}
		node := cluster.NewNode(cluster.Member{ID: host, Space: "lab"}, ep, cfg)
		// Star seeding plus the ring predecessor: discovery of everyone
		// else is the dissemination layer's job.
		if len(nodes) > 0 {
			node.Join(nodes[0].Self())
			node.Join(nodes[len(nodes)-1].Self())
		}
		watch(node)
		nodes = append(nodes, node)
		return node, nil
	}
	for i := 0; i < n; i++ {
		if _, err := addNode(i); err != nil {
			return res, err
		}
	}

	tick := func() {
		for _, node := range nodes {
			mu.Lock()
			skip := down[node.Self().ID]
			mu.Unlock()
			if !skip {
				node.Tick()
			}
		}
	}
	allSee := func(want int) bool {
		for _, node := range nodes {
			mu.Lock()
			skip := down[node.Self().ID]
			mu.Unlock()
			if skip {
				continue
			}
			if len(node.AliveHosts()) != want {
				return false
			}
		}
		return true
	}
	converge := func(want int, what string) (int, error) {
		deadline := time.Now().Add(120 * time.Second)
		for rounds := 0; ; rounds++ {
			if allSee(want) {
				return rounds, nil
			}
			if time.Now().After(deadline) {
				return rounds, fmt.Errorf("bench: members %s never converged to %d alive at n=%d", what, want, n)
			}
			tick()
		}
	}

	var err error
	if res.BootstrapRounds, err = converge(n, "bootstrap"); err != nil {
		return res, err
	}

	// Steady state: meter the gossip cost over a fixed round window.
	bytes0, msgs0, updates0 := gossipMeters(nodes)
	for i := 0; i < steadyRounds; i++ {
		tick()
	}
	bytes1, msgs1, updates1 := gossipMeters(nodes)
	res.GossipBytes = bytes1 - bytes0
	res.GossipMsgs = msgs1 - msgs0
	if res.GossipMsgs > 0 {
		res.BytesPerMsg = float64(res.GossipBytes) / float64(res.GossipMsgs)
		res.UpdatesPerMsg = float64(updates1-updates0) / float64(res.GossipMsgs)
	}
	perHostRound := float64(res.GossipBytes) / float64(len(nodes)) / float64(steadyRounds)
	res.BytesPerHostSec = perHostRound * float64(time.Second) / float64(cfg.ProbeInterval)

	// Join: one newcomer, counted in rounds until unanimous.
	if _, err := addNode(n); err != nil {
		return res, err
	}
	if res.JoinRounds, err = converge(n+1, "join"); err != nil {
		return res, err
	}

	// Kill: a mid-ring host dies; survivors must convict it. The edge is
	// part wall-clock (the suspicion window) so both units are reported.
	victim := nodes[n/2].Self().ID
	mu.Lock()
	down[victim] = true
	mu.Unlock()
	if err := net.SetHostDown(victim, true); err != nil {
		return res, err
	}
	killAt := time.Now()
	deadline := killAt.Add(120 * time.Second)
	for rounds := 0; ; rounds++ {
		if allConvicted(nodes, down, &mu, victim) {
			res.KillRounds = rounds
			res.KillWall = time.Since(killAt)
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("bench: members kill never converged at n=%d", n)
		}
		tick()
	}
	return res, nil
}

// gossipMeters sums the per-host gossip counters across nodes.
func gossipMeters(nodes []*cluster.Node) (bytes, msgs, updates int64) {
	for _, node := range nodes {
		id := node.Self().ID
		bytes += obs.Default.Counter("mdagent_gossip_bytes_total", "host", id).Value()
		msgs += obs.Default.Counter("mdagent_gossip_msgs_total", "host", id).Value()
		updates += obs.Default.Counter("mdagent_gossip_updates_total", "host", id).Value()
	}
	return bytes, msgs, updates
}

// allConvicted reports whether every live node sees victim dead.
func allConvicted(nodes []*cluster.Node, down map[string]bool, mu *sync.Mutex, victim string) bool {
	for _, node := range nodes {
		mu.Lock()
		skip := down[node.Self().ID]
		mu.Unlock()
		if skip {
			continue
		}
		if m, ok := node.Member(victim); !ok || m.State != cluster.StateDead {
			return false
		}
	}
	return true
}
