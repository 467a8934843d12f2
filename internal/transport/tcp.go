package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// TCPNode hosts one endpoint reachable over TCP, one envelope per message
// (envelope.go). Peers are registered by (endpoint name, address);
// outbound connections are dialed lazily, handshaken once and reused.
// This is the fabric behind cmd/mdagentd and cmd/mdregistry for real
// multi-process deployments.
type TCPNode struct {
	ep *Endpoint
	ln net.Listener

	mu      sync.Mutex
	peers   map[string]string     // endpoint name -> address
	conns   map[string]*tcpLink   // address -> live link (outbound)
	routes  map[string]*tcpLink   // endpoint name -> inbound link (reply path)
	links   map[*tcpLink]struct{} // every live link, inbound and outbound
	aliases map[string]bool       // extra names this node answers to
	closed  bool
	wg      sync.WaitGroup
}

type tcpLink struct {
	conn net.Conn
	r    *bufio.Reader // read by the handshake, then by readLoop alone

	// Writes are serialized by mu, which guards the fields below. vec and
	// out live in the link because net.Buffers.WriteTo takes its receiver
	// by pointer through an interface: a local would escape, an
	// allocation per send. WriteTo consumes its receiver, the elements
	// included, so vec is the link's own copy of the body's list: the
	// caller's stays whole for a resend over a redialled link.
	mu  sync.Mutex
	hdr []byte      // the outgoing envelope's prefix and header
	vec net.Buffers // header, payload, further parts: one writev
	out net.Buffers // vec as WriteTo consumes it
}

func newTCPLink(conn net.Conn) *tcpLink {
	return &tcpLink{conn: conn, r: bufio.NewReader(conn)}
}

// send writes one envelope: the header from the link's scratch buffer and
// the body from the caller's slices, in one writev.
func (l *tcpLink) send(msg Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	hdr, err := appendEnvelope(l.hdr[:0], msg)
	if err != nil {
		return err
	}
	l.hdr = hdr
	l.vec = append(append(l.vec[:0], hdr, msg.Payload), msg.parts()...)
	l.out = l.vec
	_, err = l.out.WriteTo(l.conn)
	clear(l.vec) // do not pin the body until the next send
	if err != nil {
		// The peer may hold a torn envelope; nothing can follow it.
		l.conn.Close()
	}
	return err
}

// ListenTCP starts a node named name listening on addr (e.g. "127.0.0.1:0").
func ListenTCP(name, addr string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		ln:      ln,
		peers:   make(map[string]string),
		conns:   make(map[string]*tcpLink),
		routes:  make(map[string]*tcpLink),
		links:   make(map[*tcpLink]struct{}),
		aliases: make(map[string]bool),
	}
	n.ep = newEndpoint(name, n)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Endpoint returns the node's endpoint for Handle/Request/Send.
func (n *TCPNode) Endpoint() *Endpoint { return n.ep }

// Addr returns the node's listen address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// AddAlias declares an extra endpoint name this node answers to.
// Daemons multiplex several logical services onto one handler table
// (mdagentd serves migrate.* and media.* on its engine endpoint); without
// an alias, a request addressed to the service name would be refused
// with ErrNoRoute.
func (n *TCPNode) AddAlias(name string) {
	n.mu.Lock()
	n.aliases[name] = true
	n.mu.Unlock()
}

// isLocal reports whether a destination name is served by this node.
func (n *TCPNode) isLocal(to string) bool {
	if to == n.ep.name {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.aliases[to]
}

// AddPeer registers the address of a remote endpoint.
func (n *TCPNode) AddPeer(name, addr string) {
	n.mu.Lock()
	n.peers[name] = addr
	n.mu.Unlock()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		link := newTCPLink(conn)
		if !n.trackLink(link) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.readLoop(link, true)
	}
}

// trackLink registers a live link so Close can sever it; it refuses (and
// reports false) once the node is closed.
func (n *TCPNode) trackLink(link *tcpLink) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.links[link] = struct{}{}
	return true
}

// readLoop consumes envelopes from link until it fails; an inbound link
// first answers the dialer's handshake. Replies to a learned sender go
// out on the same link.
func (n *TCPNode) readLoop(link *tcpLink, inbound bool) {
	defer n.wg.Done()
	defer link.conn.Close()
	var learned string
	defer func() {
		n.mu.Lock()
		delete(n.links, link)
		if learned != "" && n.routes[learned] == link {
			delete(n.routes, learned)
		}
		n.mu.Unlock()
	}()
	if inbound && link.acceptHandshake() != nil {
		return
	}
	var scratch []byte
	for {
		msg, buf, err := readEnvelope(link.r, scratch)
		scratch = buf
		if err != nil {
			return
		}
		// Remember the inbound link so replies to this sender flow back on
		// the same connection even when no peer address is registered.
		if msg.From != "" && msg.From != learned {
			n.mu.Lock()
			n.routes[msg.From] = link
			n.mu.Unlock()
			learned = msg.From
		}
		switch {
		case n.isLocal(msg.To):
			n.ep.dispatch(msg)
		case msg.ID != 0 && !msg.IsReply:
			// TCP nodes are not routers: every node hosts one endpoint
			// (plus aliases). A request for another name is refused at
			// once rather than left to the caller's deadline; one-way
			// sends and stray replies are dropped.
			_ = link.send(Message{
				Type: msg.Type, From: n.ep.name, To: msg.From, ID: msg.ID, IsReply: true,
				Err: fmt.Sprintf("%v: %q", ErrNoRoute, msg.To),
			})
		}
	}
}

// deliver implements fabric.
func (n *TCPNode) deliver(msg Message) error {
	if n.isLocal(msg.To) {
		n.ep.dispatch(msg.joined())
		return nil
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	// Prefer the learned inbound route (reply path), then the peer table.
	if link, ok := n.routes[msg.To]; ok {
		n.mu.Unlock()
		if err := link.send(msg); err == nil {
			return nil
		}
		// Inbound link died; fall through to a dialed connection if the
		// peer is also registered by address.
		n.mu.Lock()
		if n.routes[msg.To] == link {
			delete(n.routes, msg.To)
		}
	}
	addr, ok := n.peers[msg.To]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoRoute, msg.To)
	}
	link, cached := n.conns[addr]
	n.mu.Unlock()

	if !cached {
		var err error
		if link, err = n.dialLink(addr); err != nil {
			return err
		}
	}
	err := link.send(msg)
	if err == nil {
		return nil
	}
	// The cached link died under us (peer restarted, connection dropped
	// mid-stream): evict it and redial once before giving up, so a peer
	// restart costs callers at most the request that was in flight.
	n.dropLink(addr, link)
	if !cached {
		return fmt.Errorf("transport: send to %s: %w", msg.To, err)
	}
	fresh, derr := n.dialLink(addr)
	if derr != nil {
		return fmt.Errorf("transport: send to %s after redial: %w", msg.To, derr)
	}
	if err := fresh.send(msg); err != nil {
		n.dropLink(addr, fresh)
		return fmt.Errorf("transport: send to %s: %w", msg.To, err)
	}
	return nil
}

// dialLink returns the live outbound link for addr, dialing when none is
// cached (losing a dial race just adopts the winner's link).
func (n *TCPNode) dialLink(addr string) (*tcpLink, error) {
	n.mu.Lock()
	if link, ok := n.conns[addr]; ok {
		n.mu.Unlock()
		return link, nil
	}
	n.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	link := newTCPLink(conn)
	if err := link.dialHandshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	n.mu.Lock()
	if existing, raced := n.conns[addr]; raced {
		n.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	n.conns[addr] = link
	n.links[link] = struct{}{}
	n.mu.Unlock()
	// Replies flow back on the same connection.
	n.wg.Add(1)
	go n.readLoop(link, false)
	return link, nil
}

// dropLink evicts a dead outbound link, leaving any replacement that
// raced in untouched.
func (n *TCPNode) dropLink(addr string, link *tcpLink) {
	n.mu.Lock()
	if n.conns[addr] == link {
		delete(n.conns, addr)
	}
	n.mu.Unlock()
	link.conn.Close()
}

// endpointClosed implements fabric.
func (n *TCPNode) endpointClosed(string) {}

// Close shuts down the listener, every connection (inbound and
// outbound), and the endpoint.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	links := make([]*tcpLink, 0, len(n.links))
	for l := range n.links {
		links = append(links, l)
	}
	n.conns = make(map[string]*tcpLink)
	n.mu.Unlock()

	err := n.ln.Close()
	for _, l := range links {
		l.conn.Close()
	}
	n.ep.Close()
	n.wg.Wait()
	return err
}
