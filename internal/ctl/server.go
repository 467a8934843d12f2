package ctl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mdagent/internal/ctxkernel"
	"mdagent/internal/obs"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// Backend is what a control-plane server exposes. Any nil operation
// answers ErrUnsupported, so each daemon serves exactly the surface it
// has: mdagentd serves lifecycle + membership, mdregistry serves the
// registry views, the in-process Middleware serves everything.
type Backend struct {
	Info      func(ctx context.Context) (ServerInfo, error)
	Members   func(ctx context.Context) ([]MemberInfo, error)
	Apps      func(ctx context.Context) ([]AppInfo, error)
	Snapshots func(ctx context.Context) ([]state.SnapshotHead, error)
	Stats     func(ctx context.Context) ([]HostStats, error)
	RunApp    func(ctx context.Context, app, host string) error
	StopApp   func(ctx context.Context, app, host string) error
	Migrate   func(ctx context.Context, req MigrateRequest) (MigrateResult, error)
	Install   func(ctx context.Context, app, host string) error
	// PushBundle stores a signed app bundle at the serving center/host
	// (verification against the trusted keys happens in the backend).
	PushBundle func(ctx context.Context, name string, raw []byte) error
	// ListBundles lists the bundles stored at the serving center/host.
	ListBundles func(ctx context.Context) ([]BundleInfo, error)
	// InstallBundle instantiates a stored bundle on the serving host.
	InstallBundle func(ctx context.Context, app, host string) error
	// Metrics snapshots the server process's obs registry.
	Metrics func(ctx context.Context) ([]obs.Sample, error)
	// Trace returns the latest migration trace for an app.
	Trace func(ctx context.Context, app string) (obs.MigrationTrace, error)
	// Kernel is the event source Watch streams from; nil makes Watch
	// unsupported.
	Kernel *ctxkernel.Kernel
}

// The watch stream's fixed sizes: the replay ring's default capacity in
// events, how long a pusher lingers after a publish kick before it
// collects (one window of latency buys fewer, fuller push frames), and
// the largest number of events packed into one push frame.
const (
	defaultRingSize    = 8192
	defaultFlushWindow = 500 * time.Microsecond
	maxEventBatch      = 512
)

// --- Watch stream: one shared sequenced ring, per-watch cursors. ---

// watchHub is the server's replay ring: every kernel event, stamped
// with a monotonic sequence number (the first event published after
// the hub exists gets seq 1), retained in a fixed-capacity ring. Each
// v2 watch is just a cursor into it plus a topic pattern, which is what
// makes replay work across client reconnects — the ring belongs to the
// server, not to any one watch. The hub is created lazily on the first
// v2 watch and lives until the server closes.
type watchHub struct {
	kernel *ctxkernel.Kernel
	subID  int

	mu       sync.Mutex
	buf      []seqEvent // ring: seq s lives at buf[(s-1) % len]
	next     uint64     // seq the next published event will get
	watchers map[*v2watcher]struct{}
}

// v2watcher is one live watch: a cursor into the hub's ring. The
// cursor is guarded by the hub mutex (the pusher advances it, the
// subscribe path sets it).
type v2watcher struct {
	client  string
	id      uint64
	pattern string
	cursor  uint64        // next seq to deliver
	kick    chan struct{} // cap 1: publish signal, collapsed
	done    chan struct{}
	once    sync.Once
}

func (w *v2watcher) close() { w.once.Do(func() { close(w.done) }) }

func newWatchHub(kernel *ctxkernel.Kernel, size int) *watchHub {
	h := &watchHub{
		kernel:   kernel,
		buf:      make([]seqEvent, size),
		next:     1,
		watchers: make(map[*v2watcher]struct{}),
	}
	// One kernel subscription feeds every watch; per-watch filtering
	// happens at collect time with the kernel's own matching rule.
	h.subID = kernel.Subscribe("*", h.append)
	return h
}

// append stamps and ring-buffers one event, then kicks every pusher.
// It runs on publisher goroutines: O(watchers), no blocking sends.
func (h *watchHub) append(ev ctxkernel.Event) {
	h.mu.Lock()
	h.buf[(h.next-1)%uint64(len(h.buf))] = seqEvent{Seq: h.next, Event: ev}
	h.next++
	for w := range h.watchers {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	h.mu.Unlock()
}

// oldestLocked is the lowest seq the ring still holds (callers hold mu).
func (h *watchHub) oldestLocked() uint64 {
	if h.next > uint64(len(h.buf))+1 {
		return h.next - uint64(len(h.buf))
	}
	return 1
}

// collect advances w's cursor through the ring, returning up to max
// pattern-matching events and the number of events that aged out of the
// ring before the cursor reached them. lost is an upper bound on the
// watch's real loss: aged-out events are gone, so the hub cannot know
// which of them would have matched the pattern.
func (h *watchHub) collect(w *v2watcher, max int) (events []seqEvent, lost uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if oldest := h.oldestLocked(); w.cursor < oldest {
		lost = oldest - w.cursor
		w.cursor = oldest
	}
	for w.cursor < h.next && len(events) < max {
		se := h.buf[(w.cursor-1)%uint64(len(h.buf))]
		if ctxkernel.MatchTopic(w.pattern, se.Event.Topic) {
			events = append(events, se)
		}
		w.cursor++
	}
	return events, lost
}

// remove retires a pusher and closes its done channel.
func (h *watchHub) remove(w *v2watcher) {
	h.mu.Lock()
	delete(h.watchers, w)
	h.mu.Unlock()
	w.close()
}

func (h *watchHub) close() { h.kernel.Unsubscribe(h.subID) }

// Server binds a Backend onto transport endpoints. One Server may serve
// several endpoints (the in-process deployment serves one per space).
type Server struct {
	b Backend
	// RingSize is the replay ring's capacity in events (zero takes
	// defaultRingSize). Set before the first watch arrives.
	RingSize int

	mu       sync.Mutex
	watchers map[string]map[uint64]*v2watcher // client endpoint -> id -> cursor watch
	hub      *watchHub                        // created on first watch
	pushers  sync.WaitGroup                   // live push goroutines; Close joins them
	closed   bool
}

// NewServer creates a control-plane server over b.
func NewServer(b Backend) *Server {
	return &Server{b: b, watchers: make(map[string]map[uint64]*v2watcher)}
}

func (s *Server) ringSize() int {
	if s.RingSize > 0 {
		return s.RingSize
	}
	return defaultRingSize
}

// opTimeout bounds each operation handler (transport handlers carry no
// caller deadline). A minute — migrations move real megabytes.
const opTimeout = time.Minute

// handle wraps an operation handler with the sealed-request version
// check and the server's operation deadline.
func handle[Req any](s *Server, fn func(ctx context.Context, req Req) (any, error)) transport.Handler {
	return func(msg transport.Message) ([]byte, error) {
		var req Req
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		out, err := fn(ctx, req)
		if err != nil {
			return nil, err
		}
		if out == nil {
			return nil, nil
		}
		return transport.Encode(out)
	}
}

// Serve binds the control-plane operations onto ep. It returns the
// server for chaining.
func (s *Server) Serve(ep *transport.Endpoint) *Server {
	ep.Handle(MsgInfo, handle(s, func(ctx context.Context, _ struct{}) (any, error) {
		if s.b.Info == nil {
			return ServerInfo{Proto: transport.MaxProto}, nil
		}
		info, err := s.b.Info(ctx)
		if err != nil {
			return nil, err
		}
		info.Proto = transport.MaxProto
		return info, nil
	}))
	ep.Handle(MsgMembers, handle(s, func(ctx context.Context, _ struct{}) (any, error) {
		if s.b.Members == nil {
			return nil, fmt.Errorf("%w: members", ErrUnsupported)
		}
		out, err := s.b.Members(ctx)
		if err != nil {
			return nil, err
		}
		return out, nil
	}))
	ep.Handle(MsgApps, handle(s, func(ctx context.Context, _ struct{}) (any, error) {
		if s.b.Apps == nil {
			return nil, fmt.Errorf("%w: apps", ErrUnsupported)
		}
		out, err := s.b.Apps(ctx)
		if err != nil {
			return nil, err
		}
		return out, nil
	}))
	ep.Handle(MsgSnapshots, handle(s, func(ctx context.Context, _ struct{}) (any, error) {
		if s.b.Snapshots == nil {
			return nil, fmt.Errorf("%w: snapshots", ErrUnsupported)
		}
		out, err := s.b.Snapshots(ctx)
		if err != nil {
			return nil, err
		}
		return out, nil
	}))
	ep.Handle(MsgStats, handle(s, func(ctx context.Context, _ struct{}) (any, error) {
		if s.b.Stats == nil {
			return nil, fmt.Errorf("%w: stats", ErrUnsupported)
		}
		out, err := s.b.Stats(ctx)
		if err != nil {
			return nil, err
		}
		return out, nil
	}))
	ep.Handle(MsgRun, handle(s, func(ctx context.Context, req runReq) (any, error) {
		if s.b.RunApp == nil {
			return nil, fmt.Errorf("%w: run", ErrUnsupported)
		}
		return nil, s.b.RunApp(ctx, req.App, req.Host)
	}))
	ep.Handle(MsgStop, handle(s, func(ctx context.Context, req runReq) (any, error) {
		if s.b.StopApp == nil {
			return nil, fmt.Errorf("%w: stop", ErrUnsupported)
		}
		return nil, s.b.StopApp(ctx, req.App, req.Host)
	}))
	ep.Handle(MsgMigrate, handle(s, func(ctx context.Context, req MigrateRequest) (any, error) {
		if s.b.Migrate == nil {
			return nil, fmt.Errorf("%w: migrate", ErrUnsupported)
		}
		res, err := s.b.Migrate(ctx, req)
		if err != nil {
			return nil, err
		}
		return res, nil
	}))
	ep.Handle(MsgInstall, handle(s, func(ctx context.Context, req runReq) (any, error) {
		if s.b.Install == nil {
			return nil, fmt.Errorf("%w: install", ErrUnsupported)
		}
		return nil, s.b.Install(ctx, req.App, req.Host)
	}))
	ep.Handle(MsgBundlePush, func(msg transport.Message) ([]byte, error) {
		if s.b.PushBundle == nil {
			return nil, fmt.Errorf("%w: bundle-push", ErrUnsupported)
		}
		name, raw, err := decodeBundlePush(msg.Payload)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		return nil, s.b.PushBundle(ctx, name, raw)
	})
	ep.Handle(MsgBundleList, handle(s, func(ctx context.Context, _ struct{}) (any, error) {
		if s.b.ListBundles == nil {
			return nil, fmt.Errorf("%w: bundle-list", ErrUnsupported)
		}
		out, err := s.b.ListBundles(ctx)
		if err != nil {
			return nil, err
		}
		return out, nil
	}))
	ep.Handle(MsgBundleInstall, handle(s, func(ctx context.Context, req bundleInstallReq) (any, error) {
		if s.b.InstallBundle == nil {
			return nil, fmt.Errorf("%w: bundle-install", ErrUnsupported)
		}
		return nil, s.b.InstallBundle(ctx, req.App, req.Host)
	}))
	ep.Handle(MsgMetrics, handle(s, func(ctx context.Context, _ struct{}) (any, error) {
		if s.b.Metrics == nil {
			return nil, fmt.Errorf("%w: metrics", ErrUnsupported)
		}
		out, err := s.b.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		return out, nil
	}))
	ep.Handle(MsgTrace, handle(s, func(ctx context.Context, req traceReq) (any, error) {
		if s.b.Trace == nil {
			return nil, fmt.Errorf("%w: trace", ErrUnsupported)
		}
		out, err := s.b.Trace(ctx, req.App)
		if err != nil {
			return nil, err
		}
		return out, nil
	}))
	ep.Handle(MsgWatch, func(msg transport.Message) ([]byte, error) {
		var req watchReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		if req.Proto < transport.ProtoV2 {
			return nil, fmt.Errorf("%w: watch stream needs protocol >= %d, client offered %d",
				ErrVersion, transport.ProtoV2, req.Proto)
		}
		return s.addWatch(ep, msg.From, req)
	})
	ep.Handle(MsgUnwatch, func(msg transport.Message) ([]byte, error) {
		var req unwatchReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		s.dropWatch(msg.From, req.ID)
		return nil, nil
	})
	return s
}

// Watch delivery accounting, process-wide: pushed events and events that
// aged out of the ring before a watch's cursor reached them (also
// reported in-band as WatchEvent.Lost).
var (
	mWatchEvents = obs.Default.Counter("mdagent_ctl_watch_events_total")
	mWatchDrops  = obs.Default.Counter("mdagent_ctl_watch_dropped_total")
)

// addWatch registers a cursor watch on the replay ring and answers with
// a watchAck. FromSeq outside the ring's retained window is refused with
// ErrReplayGap — replaying silently from somewhere else would break the
// "re-deliver instead of drop" promise.
func (s *Server) addWatch(ep *transport.Endpoint, client string, req watchReq) ([]byte, error) {
	if s.b.Kernel == nil {
		return nil, fmt.Errorf("%w: watch", ErrUnsupported)
	}
	if client == "" {
		return nil, fmt.Errorf("ctl: watch request carries no reply endpoint")
	}
	pattern := req.Pattern
	if pattern == "" {
		pattern = "*"
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("ctl: server closed")
	}
	if s.hub == nil {
		s.hub = newWatchHub(s.b.Kernel, s.ringSize())
	}
	hub := s.hub
	s.mu.Unlock()

	w := &v2watcher{
		client: client, id: req.ID, pattern: pattern,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	hub.mu.Lock()
	next := hub.next
	w.cursor = next
	if req.FromSeq != 0 {
		if oldest := hub.oldestLocked(); req.FromSeq < oldest || req.FromSeq > next {
			hub.mu.Unlock()
			return nil, fmt.Errorf("%w: from-seq %d, ring retains [%d, %d)",
				ErrReplayGap, req.FromSeq, oldest, next)
		}
		w.cursor = req.FromSeq
	}
	hub.watchers[w] = struct{}{}
	ring := len(hub.buf)
	hub.mu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		hub.remove(w)
		return nil, fmt.Errorf("ctl: server closed")
	}
	byID := s.watchers[client]
	if byID == nil {
		byID = make(map[uint64]*v2watcher)
		s.watchers[client] = byID
	}
	if old, ok := byID[req.ID]; ok {
		hub.remove(old) // idempotent re-subscribe: replace
	}
	byID[req.ID] = w
	// Registered under the same lock Close takes, so Close either sees
	// this watch (and waits for its pusher) or refused it above.
	s.pushers.Add(1)
	s.mu.Unlock()

	if w.cursor < next {
		w.kick <- struct{}{} // replay backlog: wake the pusher immediately
	}
	go s.push(ep, hub, w)
	return transport.Encode(watchAck{Proto: transport.ProtoV2, Next: next, Ring: ring})
}

// push drains one cursor watch into batched fast-frame pushes: wake on
// a publish kick, linger one flush window so a burst coalesces, then
// collect and send full batches until the cursor catches the ring. A
// send failure (client gone, link dead) retires the watch — transport
// learned-routes make sends to a departed client fail rather than hang.
func (s *Server) push(ep *transport.Endpoint, hub *watchHub, w *v2watcher) {
	defer s.pushers.Done()
	for {
		select {
		case <-w.done:
			return
		case <-w.kick:
		}
		timer := time.NewTimer(defaultFlushWindow)
		select {
		case <-w.done:
			timer.Stop()
			return
		case <-timer.C:
		}
		for {
			select {
			case <-w.done: // retired mid-drain: stop before booking more
				return
			default:
			}
			events, lost := hub.collect(w, maxEventBatch)
			if len(events) == 0 && lost == 0 {
				break
			}
			mWatchEvents.Add(int64(len(events)))
			if lost > 0 {
				mWatchDrops.Add(int64(lost))
			}
			if err := ep.Send(w.client, MsgEventV2, encodeEventBatch(w.id, lost, events)); err != nil {
				s.dropWatch(w.client, w.id)
				return
			}
			if len(events) < maxEventBatch {
				break // collect drained the ring (cursor == next)
			}
		}
	}
}

// dropWatch retires one watch (client unsubscribe or dead push path).
func (s *Server) dropWatch(client string, id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.watchers[client][id]; ok {
		if s.hub != nil {
			s.hub.remove(w)
		}
		delete(s.watchers[client], id)
		if len(s.watchers[client]) == 0 {
			delete(s.watchers, client)
		}
	}
}

// Close retires every live watch and the replay hub, then joins the
// pusher goroutines — after Close returns, no pusher will send another
// frame or touch the drop metrics. The endpoint handlers stay
// registered (the endpoint owns its own lifecycle); new watches are
// refused.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for client, byID := range s.watchers {
		for id, w := range byID {
			if s.hub != nil {
				s.hub.remove(w)
			}
			delete(byID, id)
		}
		delete(s.watchers, client)
	}
	if s.hub != nil {
		s.hub.close()
		s.hub = nil
	}
	s.mu.Unlock()
	// Outside the lock: a pusher's exit path (dropWatch) takes s.mu.
	s.pushers.Wait()
}
