package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Handler processes one incoming message. For requests, the returned
// payload becomes the reply body; returning an error produces an error
// reply. Handlers run on their own goroutine and may themselves issue
// requests through the endpoint.
//
// A handler owns msg.Payload: it may keep the slice, or slices of it,
// for as long as it likes, and nobody writes into it again. A TCP link
// decodes a fresh slice per message; LocalFabric hands over the sender's
// own, which is why no sender writes into a payload after sending it.
type Handler func(msg Message) ([]byte, error)

// fabric is the delivery substrate endpoints hang off.
type fabric interface {
	deliver(msg Message) error
	endpointClosed(name string)
}

// Endpoint is a named participant on a fabric. Create endpoints with the
// fabric's Attach method; the zero value is not usable.
type Endpoint struct {
	name   string
	fab    fabric
	nextID atomic.Uint64

	mu       sync.Mutex
	handlers map[string]Handler
	ordered  map[string]*orderedEntry
	pending  map[uint64]chan Message
	closed   bool
	inflight sync.WaitGroup
	quit     chan struct{} // closed after Close drains inflight; stops ordered workers
}

// orderedEntry is one HandleOrdered registration: a queue drained by a
// single worker goroutine, so messages of this type are handled in
// arrival order. h is guarded by the endpoint mutex (re-registration
// swaps the handler but keeps the queue and worker).
type orderedEntry struct {
	q chan Message
	h Handler
}

func newEndpoint(name string, fab fabric) *Endpoint {
	return &Endpoint{
		name:     name,
		fab:      fab,
		handlers: make(map[string]Handler),
		ordered:  make(map[string]*orderedEntry),
		pending:  make(map[uint64]chan Message),
		quit:     make(chan struct{}),
	}
}

// Name returns the endpoint's fabric-unique name.
func (e *Endpoint) Name() string { return e.name }

// Handle registers a handler for a message type. Registering twice for the
// same type replaces the handler.
func (e *Endpoint) Handle(msgType string, h Handler) {
	e.mu.Lock()
	e.handlers[msgType] = h
	e.mu.Unlock()
}

// HandleOrdered registers a handler whose messages are processed in
// arrival order by a single worker goroutine, instead of one goroutine
// per message. Both fabrics deliver in send order (LocalFabric
// dispatches synchronously; a TCP link writes through one encoder), so
// this is all a stream consumer needs for in-order delivery — the
// control plane's watch pushes use it. The queue is bounded; a full
// queue blocks the fabric's delivery path, which backpressures the
// sender rather than reordering or dropping. Re-registering the same
// type swaps the handler but keeps the queue and worker.
func (e *Endpoint) HandleOrdered(msgType string, h Handler) {
	e.mu.Lock()
	if ent, ok := e.ordered[msgType]; ok {
		ent.h = h
		e.mu.Unlock()
		return
	}
	ent := &orderedEntry{q: make(chan Message, 4096), h: h}
	e.ordered[msgType] = ent
	e.mu.Unlock()
	go func() {
		for {
			select {
			case msg := <-ent.q:
				e.mu.Lock()
				h := ent.h
				e.mu.Unlock()
				e.invoke(msg, h, true)
			case <-e.quit:
				// Close has drained inflight, so the queue is empty and
				// no enqueue is pending; exit.
				return
			}
		}
	}()
}

// Send delivers a one-way message; no reply is expected.
func (e *Endpoint) Send(to, msgType string, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.fab.deliver(Message{Type: msgType, From: e.name, To: to, Payload: payload})
}

// Request sends a message and waits for the correlated reply or ctx done.
func (e *Endpoint) Request(ctx context.Context, to, msgType string, payload []byte) (Message, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Message{}, ErrClosed
	}
	id := e.nextID.Add(1)
	ch := make(chan Message, 1)
	e.pending[id] = ch
	e.mu.Unlock()

	defer func() {
		e.mu.Lock()
		delete(e.pending, id)
		e.mu.Unlock()
	}()

	msg := Message{Type: msgType, From: e.name, To: to, ID: id, Payload: payload}
	if err := e.fab.deliver(msg); err != nil {
		return Message{}, err
	}
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return reply, &RemoteError{Endpoint: to, Msg: reply.Err}
		}
		return reply, nil
	case <-ctx.Done():
		return Message{}, fmt.Errorf("transport: request %s to %s: %w", msgType, to, ctx.Err())
	}
}

// RequestDecode performs a Request and gob-decodes the reply payload into out.
func (e *Endpoint) RequestDecode(ctx context.Context, to, msgType string, payload []byte, out any) error {
	reply, err := e.Request(ctx, to, msgType, payload)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return Decode(reply.Payload, out)
}

// dispatch handles a message arriving from the fabric.
func (e *Endpoint) dispatch(msg Message) {
	if msg.IsReply {
		e.mu.Lock()
		ch, ok := e.pending[msg.ID]
		e.mu.Unlock()
		if ok {
			select {
			case ch <- msg:
			default: // duplicate reply; drop
			}
		}
		return
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if ent, ok := e.ordered[msg.Type]; ok {
		e.inflight.Add(1)
		e.mu.Unlock()
		ent.q <- msg // full queue backpressures the fabric's delivery path
		return
	}
	h, ok := e.handlers[msg.Type]
	e.inflight.Add(1)
	e.mu.Unlock()

	go e.invoke(msg, h, ok)
}

// invoke runs one handler and sends the reply when the message was a
// request. It balances the inflight count taken by dispatch.
func (e *Endpoint) invoke(msg Message, h Handler, ok bool) {
	defer e.inflight.Done()
	reply := Message{To: msg.From, From: e.name, ID: msg.ID, IsReply: true, Type: msg.Type}
	if !ok {
		reply.Err = ErrNoHandler.Error() + ": " + msg.Type
	} else {
		payload, err := h(msg)
		if err != nil {
			reply.Err = err.Error()
		} else {
			reply.Payload = payload
		}
	}
	// Only requests (ID != 0) get replies.
	if msg.ID != 0 {
		_ = e.fab.deliver(reply) // best effort; requester may be gone
	}
}

// Close detaches the endpoint from its fabric, waits for in-flight
// handlers, and fails any pending requests.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	pending := e.pending
	e.pending = make(map[uint64]chan Message)
	e.mu.Unlock()

	for _, ch := range pending {
		select {
		case ch <- Message{IsReply: true, Err: ErrClosed.Error()}:
		default:
		}
	}
	e.inflight.Wait()
	close(e.quit) // inflight drained: ordered queues are empty, workers exit
	e.fab.endpointClosed(e.name)
	return nil
}
