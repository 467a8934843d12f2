package platform

import (
	"fmt"
	"sort"
	"sync"

	"mdagent/internal/transport"
)

// MsgACL is the transport message type carrying ACL messages between
// containers.
const MsgACL = "platform.acl"

// ServiceAd is a DF (directory facilitator) advertisement.
type ServiceAd struct {
	Agent string // providing agent
	Type  string // service type, e.g. "mobility-manager"
	Name  string // service instance name
}

// Platform is the agent platform: the AMS (agent directory), the DF
// (service directory), and the set of containers. It plays the role of
// JADE's main container.
type Platform struct {
	fabric *transport.LocalFabric

	mu         sync.RWMutex
	containers map[string]*Container // container name -> container
	ams        map[string]string     // agent name -> container name
	df         map[string][]ServiceAd
}

// NewPlatform creates a platform over a local fabric.
func NewPlatform(fabric *transport.LocalFabric) *Platform {
	return &Platform{
		fabric:     fabric,
		containers: make(map[string]*Container),
		ams:        make(map[string]string),
		df:         make(map[string][]ServiceAd),
	}
}

// NewContainer creates a container on a netsim host. The container name
// doubles as its transport endpoint name.
func (p *Platform) NewContainer(name, host string) (*Container, error) {
	ep, err := p.fabric.Attach(name, host)
	if err != nil {
		return nil, err
	}
	c := &Container{
		platform: p,
		name:     name,
		host:     host,
		ep:       ep,
		agents:   make(map[string]*Agent),
	}
	ep.Handle(MsgACL, c.handleRemoteACL)
	p.mu.Lock()
	p.containers[name] = c
	p.mu.Unlock()
	return c, nil
}

// Container looks up a container by name.
func (p *Platform) Container(name string) (*Container, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c, ok := p.containers[name]
	return c, ok
}

// WhereIs returns the container name hosting an agent (AMS lookup).
func (p *Platform) WhereIs(agent string) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c, ok := p.ams[agent]
	return c, ok
}

// registerAgent binds an agent name to a container in the AMS.
func (p *Platform) registerAgent(agent, container string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.ams[agent]; ok && existing != container {
		return fmt.Errorf("platform: agent name %q already registered on %s", agent, existing)
	}
	p.ams[agent] = container
	return nil
}

func (p *Platform) unregisterAgent(agent string) {
	p.mu.Lock()
	delete(p.ams, agent)
	// Drop DF ads from this agent.
	for typ, ads := range p.df {
		kept := ads[:0]
		for _, ad := range ads {
			if ad.Agent != agent {
				kept = append(kept, ad)
			}
		}
		if len(kept) == 0 {
			delete(p.df, typ)
		} else {
			p.df[typ] = kept
		}
	}
	p.mu.Unlock()
}

// RegisterService advertises a service in the DF.
func (p *Platform) RegisterService(ad ServiceAd) {
	p.mu.Lock()
	p.df[ad.Type] = append(p.df[ad.Type], ad)
	p.mu.Unlock()
}

// SearchService returns DF advertisements of a service type, sorted by
// agent name.
func (p *Platform) SearchService(serviceType string) []ServiceAd {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ads := make([]ServiceAd, len(p.df[serviceType]))
	copy(ads, p.df[serviceType])
	sort.Slice(ads, func(i, j int) bool { return ads[i].Agent < ads[j].Agent })
	return ads
}

// Agents returns all registered agent names, sorted (diagnostics).
func (p *Platform) Agents() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := make([]string, 0, len(p.ams))
	for n := range p.ams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Container hosts agents on one netsim host, with a transport endpoint
// for inter-container traffic.
type Container struct {
	platform *Platform
	name     string
	host     string
	ep       *transport.Endpoint

	mu     sync.RWMutex
	agents map[string]*Agent
}

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// Host returns the netsim host id the container runs on.
func (c *Container) Host() string { return c.host }

// Platform returns the owning platform.
func (c *Container) Platform() *Platform { return c.platform }

// CreateAgent creates and starts an agent with the given body.
func (c *Container) CreateAgent(name string, body Body) (*Agent, error) {
	if err := c.platform.registerAgent(name, c.name); err != nil {
		return nil, err
	}
	a := newAgent(name, body, c)
	c.mu.Lock()
	c.agents[name] = a
	c.mu.Unlock()
	if err := a.start(); err != nil {
		c.removeAgent(name)
		return nil, err
	}
	return a, nil
}

// Agent looks up a local agent.
func (c *Container) Agent(name string) (*Agent, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.agents[name]
	return a, ok
}

// KillAgent terminates a local agent and deregisters it.
func (c *Container) KillAgent(name string) error {
	c.mu.Lock()
	a, ok := c.agents[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("platform: no agent %q on %s", name, c.name)
	}
	a.Kill()
	c.removeAgent(name)
	return nil
}

func (c *Container) removeAgent(name string) {
	c.mu.Lock()
	delete(c.agents, name)
	c.mu.Unlock()
	c.platform.unregisterAgent(name)
}

// route delivers an ACL message: locally when the receiver lives here,
// remotely via the destination container's endpoint otherwise.
func (c *Container) route(msg ACLMessage) error {
	if msg.Receiver == "" {
		return fmt.Errorf("platform: message has no receiver: %s", msg)
	}
	c.mu.RLock()
	local, isLocal := c.agents[msg.Receiver]
	c.mu.RUnlock()
	if isLocal {
		local.Post(msg)
		return nil
	}
	destContainer, ok := c.platform.WhereIs(msg.Receiver)
	if !ok {
		return fmt.Errorf("platform: unknown agent %q", msg.Receiver)
	}
	payload, err := transport.Encode(msg)
	if err != nil {
		return err
	}
	return c.ep.Send(destContainer, MsgACL, payload)
}

// handleRemoteACL posts an inbound remote ACL message to the local agent.
func (c *Container) handleRemoteACL(tm transport.Message) ([]byte, error) {
	var msg ACLMessage
	if err := transport.Decode(tm.Payload, &msg); err != nil {
		return nil, err
	}
	c.mu.RLock()
	a, ok := c.agents[msg.Receiver]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("platform: %s has no agent %q", c.name, msg.Receiver)
	}
	a.Post(msg)
	return nil, nil
}
