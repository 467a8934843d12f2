// Package cluster is MDAgent's distribution layer: SWIM-style gossip
// membership with suspect->dead failure detection (Node), a federated
// registry replicating app/resource/device records across smart-space
// centers with per-record version vectors (Center), and failover
// re-homing of a dead host's applications onto the best survivor
// (Failover).
//
// The paper's testbed (§5) hangs every host off one Juddi+MySQL registry
// center — a single point of failure. Here each smart space runs its own
// center; centers reconcile by push + anti-entropy digests so rebinding
// queries resolve against the union of spaces, and hosts gossip liveness
// so the environment survives churn instead of assuming the 2002 testbed
// never crashes. Everything runs over internal/transport endpoints, so
// the same code paths work in-process (where internal/netsim injects
// host-down and partition faults) and over TCP (cmd/mdagentd,
// cmd/mdregistry).
package cluster

import (
	"sort"
	"sync"

	"mdagent/internal/store"
	"mdagent/internal/transport"
)

// Cluster assembles one deployment's membership nodes and federated
// centers: centers are fully meshed as they are added, nodes join the
// existing membership, and Start/Stop manage every component's loops.
// internal/core owns one Cluster per Middleware when Config.Cluster is
// set.
type Cluster struct {
	cfg Config

	mu        sync.Mutex
	centers   map[string]*Center
	nodes     map[string]*Node
	listeners []func(*Node, Member)
	started   bool
}

// New creates an empty cluster assembly.
func New(cfg Config) *Cluster {
	return &Cluster{
		cfg:     cfg.withDefaults(),
		centers: make(map[string]*Center),
		nodes:   make(map[string]*Node),
	}
}

// Config returns the effective (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// AddCenter creates the federated registry center for a space over db on
// ep and meshes it with every existing center. Adding a space twice
// returns the existing center.
func (c *Cluster) AddCenter(space string, db *store.Store, ep *transport.Endpoint) *Center {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr, ok := c.centers[space]; ok {
		return ctr
	}
	ctr := NewCenter(space, db, ep, c.cfg)
	for peerSpace, peer := range c.centers {
		ctr.AddPeer(peerSpace, peer.ep.Name())
		peer.AddPeer(space, ep.Name())
	}
	c.centers[space] = ctr
	if c.started {
		ctr.Start()
	}
	return ctr
}

// Center returns a space's center.
func (c *Cluster) Center(space string) (*Center, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.centers[space]
	return ctr, ok
}

// Spaces lists federated spaces, sorted.
func (c *Cluster) Spaces() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.centers))
	for s := range c.centers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// AddNode creates the membership node for a host on ep and joins it to
// the existing membership (each side seeds the other).
func (c *Cluster) AddNode(host, space string, ep *transport.Endpoint) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[host]; ok {
		return n
	}
	n := NewNode(Member{ID: host, Space: space, Endpoint: ep.Name()}, ep, c.cfg)
	for _, f := range c.listeners {
		n.OnChange(f)
	}
	for _, peer := range c.nodes {
		n.Join(peer.Self())
		peer.Join(n.Self())
	}
	c.nodes[host] = n
	if c.started {
		n.Start()
	}
	return n
}

// Node returns a host's membership node.
func (c *Cluster) Node(host string) (*Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[host]
	return n, ok
}

// OnMemberChange registers a membership listener on every node, current
// and future.
func (c *Cluster) OnMemberChange(f func(*Node, Member)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, f)
	for _, n := range c.nodes {
		n.OnChange(f)
	}
}

// Start launches every node's probe loop and every center's anti-entropy
// loop; components added later start automatically.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	for _, n := range c.nodes {
		n.Start()
	}
	for _, ctr := range c.centers {
		ctr.Start()
	}
}

// Stop halts every loop (idempotent).
func (c *Cluster) Stop() {
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	centers := make([]*Center, 0, len(c.centers))
	for _, ctr := range c.centers {
		centers = append(centers, ctr)
	}
	c.started = false
	c.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	for _, ctr := range centers {
		ctr.Stop()
	}
}
