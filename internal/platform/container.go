package platform

import (
	"fmt"
	"sync"

	"mdagent/internal/transport"
)

// MsgACL is the transport message type carrying ACL messages between
// containers.
const MsgACL = "platform.acl"

// Platform is the agent platform: the AMS (agent directory) and the set
// of containers. It plays the role of JADE's main container.
type Platform struct {
	fabric *transport.LocalFabric

	mu  sync.RWMutex
	ams map[string]string // agent name -> container name
}

// NewPlatform creates a platform over a local fabric.
func NewPlatform(fabric *transport.LocalFabric) *Platform {
	return &Platform{
		fabric: fabric,
		ams:    make(map[string]string),
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
		ep:       ep,
		agents:   make(map[string]*Agent),
	}
	ep.Handle(MsgACL, c.handleRemoteACL)
	return c, nil
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
	p.mu.Unlock()
}

// Container hosts agents on one netsim host, with a transport endpoint
// for inter-container traffic.
type Container struct {
	platform *Platform
	name     string
	ep       *transport.Endpoint

	mu     sync.RWMutex
	agents map[string]*Agent
}

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
