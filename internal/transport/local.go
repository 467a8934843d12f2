package transport

import (
	"fmt"
	"sync"

	"mdagent/internal/netsim"
)

// LocalFabric delivers messages between in-process endpoints, charging
// each delivery's cost to a netsim network when one is attached. It is the
// fabric used by tests, examples and the benchmark harness: the same
// middleware code paths run over it as over TCP, but timing comes from the
// simulated 2002-era testbed.
type LocalFabric struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	hostOf    map[string]string // endpoint name -> netsim host id
	net       *netsim.Network
	closed    bool
}

// NewLocalFabric creates a fabric. net may be nil for cost-free delivery.
func NewLocalFabric(net *netsim.Network) *LocalFabric {
	return &LocalFabric{
		endpoints: make(map[string]*Endpoint),
		hostOf:    make(map[string]string),
		net:       net,
	}
}

// Attach creates an endpoint named name residing on the given netsim host
// (host may be empty when no network is attached).
func (f *LocalFabric) Attach(name, host string) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if _, dup := f.endpoints[name]; dup {
		return nil, fmt.Errorf("transport: endpoint %q already attached", name)
	}
	if f.net != nil && host != "" {
		if _, ok := f.net.Host(host); !ok {
			return nil, fmt.Errorf("transport: unknown netsim host %q", host)
		}
	}
	ep := newEndpoint(name, f)
	f.endpoints[name] = ep
	f.hostOf[name] = host
	return ep, nil
}

// Lookup returns the endpoint registered under name.
func (f *LocalFabric) Lookup(name string) (*Endpoint, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ep, ok := f.endpoints[name]
	return ep, ok
}

func (f *LocalFabric) deliver(msg Message) error {
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return ErrClosed
	}
	dst, ok := f.endpoints[msg.To]
	srcHost := f.hostOf[msg.From]
	dstHost := f.hostOf[msg.To]
	net := f.net
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRoute, msg.To)
	}
	if net != nil && srcHost != "" && dstHost != "" && srcHost != dstHost {
		// The bytes TCP would send: envelope prefix, header and payload.
		if _, _, err := net.Transfer(srcHost, dstHost, int64(envelopeLen(msg))); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
	}
	dst.dispatch(msg.joined())
	return nil
}

func (f *LocalFabric) endpointClosed(name string) {
	f.mu.Lock()
	delete(f.endpoints, name)
	delete(f.hostOf, name)
	f.mu.Unlock()
}

// Close closes every endpoint and then the fabric itself.
func (f *LocalFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	eps := make([]*Endpoint, 0, len(f.endpoints))
	for _, ep := range f.endpoints {
		eps = append(eps, ep)
	}
	f.endpoints = make(map[string]*Endpoint)
	f.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.closed = true
		pend := ep.pending
		ep.pending = make(map[uint64]chan Message)
		ep.mu.Unlock()
		for _, ch := range pend {
			select {
			case ch <- Message{IsReply: true, Err: ErrClosed.Error()}:
			default:
			}
		}
		ep.inflight.Wait()
	}
	return nil
}
