// Package core assembles the four MDAgent layers (Fig. 2 — Sensor,
// Context, Agent, Application) into one middleware deployment. A
// Middleware models a whole pervasive environment: the simulated network
// of hosts and spaces, the Cricket sensor field, the context kernel with
// its classifier/monitor/fusion/predictor, the agent platform, a registry
// center, and one migration engine + media library per host. The root
// mdagent package re-exports this facade as the public API.
package core

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sort"
	"sync"
	"time"

	"mdagent/internal/agents"
	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/platform"
	"mdagent/internal/registry"
	"mdagent/internal/sensor"
	"mdagent/internal/space"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// Config parameterizes a Middleware deployment.
type Config struct {
	// Clock drives all costed operations. Nil defaults to a Virtual clock
	// starting at the Unix epoch (fast, deterministic). Use vclock.Real
	// to pace live demos.
	Clock vclock.Clock
	// Seed feeds the deterministic noise sources (default 1).
	Seed int64
	// Link is the default link profile (default: the paper's 10 Mbps
	// Ethernet).
	Link netsim.LinkProfile
	// Costs calibrates migration overheads (default: DefaultCosts).
	Costs migrate.CostProfile
	// SensorTick is the sampling period of the sensor walker
	// (default 500 ms).
	SensorTick time.Duration
	// StorePath persists the registry to a directory when non-empty.
	StorePath string
	// Cluster opts the deployment into the distribution layer: gossip
	// membership per host, one federated registry center per smart space
	// (replacing the single registry center as the engines' catalog), and
	// automatic failover re-homing of a dead host's applications. Nil
	// (the default) keeps the paper's single-center topology.
	Cluster *cluster.Config
	// TrustedKeys are the Ed25519 publisher keys this deployment accepts
	// signed app bundles from. Empty refuses every bundle (push and
	// install) with bundle.ErrUntrustedKey — trust is opt-in.
	TrustedKeys []ed25519.PublicKey
	// Secrets resolves the ref:// secret references a bundle's manifest
	// declares, at instantiation time. The zero Resolver reads only the
	// process environment.
	Secrets bundle.Resolver
}

// Kernel topics published by the cluster layer (canonical strings live in
// ctxkernel so the agent layer can subscribe without importing core).
const (
	// TopicHostDead fires when membership declares a host dead (with
	// quorum) and failover begins.
	TopicHostDead = ctxkernel.TopicClusterHostDead
	// TopicRehomed fires for each application relaunched on a survivor.
	TopicRehomed = ctxkernel.TopicClusterRehomed
	// TopicRehomeFailed fires when failover could not re-home an app.
	TopicRehomeFailed = ctxkernel.TopicClusterRehomeFailed
	// TopicSuperseded fires when a revived host stops its stale copy of
	// an app that was re-homed during its conviction (attrs: app, host).
	TopicSuperseded = ctxkernel.TopicClusterSuperseded
	// TopicStateReplicated fires per snapshot published by a host's
	// replicator (attrs: app, host, seq, bytes).
	TopicStateReplicated = ctxkernel.TopicStateReplicated
	// TopicStateRestored fires when failover restores a re-homed app from
	// a replicated snapshot (attrs: app, to, seq).
	TopicStateRestored = ctxkernel.TopicStateRestored
	// TopicClusterDurable fires when a synchronous-concern federation
	// write met its write concern (attrs: space, key, concern, acked,
	// required).
	TopicClusterDurable = ctxkernel.TopicClusterDurable
	// TopicClusterDegraded fires when a synchronous-concern federation
	// write fell short of its concern or skipped the wait because the
	// membership view said a quorum was unreachable (attrs: space, key,
	// concern, acked, required, degraded).
	TopicClusterDegraded = ctxkernel.TopicClusterDegraded
)

// Middleware is one MDAgent deployment.
type Middleware struct {
	cfg Config

	Clock      vclock.Clock
	Net        *netsim.Network
	Fabric     *transport.LocalFabric
	Registry   *registry.Registry
	Directory  *space.Directory
	Field      *sensor.Field
	Kernel     *ctxkernel.Kernel
	Classifier *ctxkernel.Classifier
	Monitor    *ctxkernel.Monitor
	Fusion     *ctxkernel.Fusion
	Predictor  *ctxkernel.Predictor
	Platform   *platform.Platform
	// Cluster is the distribution layer (nil unless Config.Cluster set).
	Cluster *cluster.Cluster

	mu    sync.Mutex
	hosts map[string]*HostRuntime
	db    *store.Store

	rehomeMu    sync.Mutex
	rehomed     map[string]bool   // dead hosts already re-homed (dedupes reporters)
	rehomeTries map[string]int    // failed attempts per dead host (bounded retry)
	centerHosts map[string]string // space -> host its center endpoint lives on
}

// maxRehomeAttempts bounds the failover retry loop for one dead host.
const maxRehomeAttempts = 5

// New builds an empty deployment from cfg.
func New(cfg Config) (*Middleware, error) {
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewVirtual(time.Unix(0, 0))
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Link == (netsim.LinkProfile{}) {
		cfg.Link = netsim.Ethernet10()
	}
	if cfg.Costs == (migrate.CostProfile{}) {
		cfg.Costs = migrate.DefaultCosts()
	}
	if cfg.SensorTick <= 0 {
		cfg.SensorTick = 500 * time.Millisecond
	}

	db := store.OpenMemory()
	if cfg.StorePath != "" {
		var err error
		db, err = store.Open(cfg.StorePath)
		if err != nil {
			return nil, err
		}
	}
	reg, err := registry.New(db)
	if err != nil {
		return nil, err
	}

	net := netsim.New(cfg.Clock, netsim.WithSeed(cfg.Seed), netsim.WithDefaultLink(cfg.Link))
	fab := transport.NewLocalFabric(net)
	mw := &Middleware{
		cfg:        cfg,
		Clock:      cfg.Clock,
		Net:        net,
		Fabric:     fab,
		Registry:   reg,
		Directory:  space.NewDirectory(),
		Field:      sensor.NewField(cfg.Clock, sensor.WithFieldSeed(cfg.Seed)),
		Kernel:     ctxkernel.NewKernel(),
		Classifier: ctxkernel.NewClassifier(),
		Monitor:    ctxkernel.NewMonitor(ctxkernel.NewKernel()), // replaced below
		Predictor:  ctxkernel.NewPredictor(),
		Platform:   platform.NewPlatform(fab),
		hosts:      make(map[string]*HostRuntime),
		db:         db,
	}
	mw.Monitor = ctxkernel.NewMonitor(mw.Kernel)
	mw.Fusion = ctxkernel.NewFusion(mw.Field, mw.Kernel)
	mw.Classifier.AttachTo(mw.Kernel)
	mw.Predictor.AttachTo(mw.Kernel)

	// The registry center runs as a service on the fabric so remote
	// clients (cmd/mdagentd deployments) can reach it too.
	regEp, err := fab.Attach("registry-center", "")
	if err != nil {
		return nil, err
	}
	reg.Serve(regEp)

	if cfg.Cluster != nil {
		mw.Cluster = cluster.New(*cfg.Cluster)
		mw.rehomed = make(map[string]bool)
		mw.rehomeTries = make(map[string]int)
		mw.centerHosts = make(map[string]string)
		mw.Cluster.OnMemberChange(mw.onMemberChange)
		mw.Cluster.Start()
	}
	return mw, nil
}

// AddSpace declares a smart space.
func (m *Middleware) AddSpace(name string) error {
	return m.Directory.AddSpace(name)
}

// AddHost provisions a host: network node, space membership, device
// profile, migration engine, agent container, and media server.
func (m *Middleware) AddHost(host, spaceName string, profile netsim.HostProfile, dev wsdl.DeviceProfile, skew time.Duration) (*HostRuntime, error) {
	if _, err := m.Net.AddHost(host, spaceName, profile, skew); err != nil {
		return nil, err
	}
	if err := m.Directory.AddHost(host, spaceName); err != nil {
		return nil, err
	}
	dev.Host = host
	if err := m.Registry.RegisterDevice(dev); err != nil {
		return nil, err
	}
	cat := migrate.Catalog(migrate.Direct{R: m.Registry})
	var center *cluster.Center
	if m.Cluster != nil {
		var err error
		center, err = m.ensureCenter(spaceName, host)
		if err != nil {
			return nil, err
		}
		if err := state.IgnoreNotDurable(center.RegisterDevice(context.Background(), dev)); err != nil {
			return nil, err
		}
		memberEp, err := m.Fabric.Attach(cluster.MemberEndpointName(host), host)
		if err != nil {
			return nil, err
		}
		node := m.Cluster.AddNode(host, spaceName, memberEp)
		m.rehomeMu.Lock()
		centerHere := m.centerHosts[spaceName] == host
		m.rehomeMu.Unlock()
		if centerHere {
			// The center is co-located with this host, so this host's
			// membership view is the center's reachability oracle: a peer
			// space's center is reachable while the host it lives on is
			// believed alive. Durable writes fail fast (degraded mode)
			// when the view says the concern is unmeetable, instead of
			// waiting out ack timeouts against a partitioned majority.
			center.SetReachable(func(peerSpace string) bool {
				m.rehomeMu.Lock()
				peerHost := m.centerHosts[peerSpace]
				m.rehomeMu.Unlock()
				if peerHost == "" {
					return true // unknown topology: assume reachable
				}
				mem, ok := node.Member(peerHost)
				return !ok || mem.State == cluster.StateAlive
			})
		}
		cat = center
	}
	ep, err := m.Fabric.Attach(migrate.EndpointName(host), host)
	if err != nil {
		return nil, err
	}
	eng := migrate.NewEngine(host, ep, m.Net, m.Directory, cat, m.cfg.Costs)
	cont, err := m.Platform.NewContainer("container@"+host, host)
	if err != nil {
		return nil, err
	}
	lib := media.NewLibrary(host)
	mediaEp, err := m.Fabric.Attach(migrate.MediaEndpointName(host), host)
	if err != nil {
		return nil, err
	}
	media.ServeLibrary(lib, mediaEp)

	rt := NewHostRuntime(host, spaceName, eng, lib, cat, m.Kernel, m.Clock, "core", m.cfg.TrustedKeys, m.cfg.Secrets)
	rt.Container = cont
	if center != nil && m.Cluster.Config().ReplicateState {
		ccfg := m.Cluster.Config()
		// RebaseEvery sits above the center's compaction threshold on
		// purpose: the center folds chains into fresh bases locally (no
		// wire cost), so the publisher's own full-frame re-baseline is a
		// safety net, not the steady-state bound.
		rt.StartReplicator(state.NewReplicator(host, spaceName, eng.Apps, center, m.Clock,
			ccfg.ReplicateInterval, state.Tuning{
				RebaseEvery:       2 * cluster.MaxDeltaChain,
				BudgetBytesPerSec: ccfg.ReplicateBudget,
			}))
	}
	m.mu.Lock()
	m.hosts[host] = rt
	m.mu.Unlock()
	return rt, nil
}

// ensureCenter lazily creates a space's federated registry center,
// co-locating its endpoint on the space's first provisioned host — when
// that host dies, the space's center dies with it, and lookups must be
// served by the surviving spaces' replicas (the paper's one-center-per-
// space topology, made crash-honest).
func (m *Middleware) ensureCenter(spaceName, host string) (*cluster.Center, error) {
	if center, ok := m.Cluster.Center(spaceName); ok {
		return center, nil
	}
	reg, err := registry.New(store.OpenMemory())
	if err != nil {
		return nil, err
	}
	ep, err := m.Fabric.Attach(cluster.CenterEndpointName(spaceName), host)
	if err != nil {
		return nil, err
	}
	m.rehomeMu.Lock()
	m.centerHosts[spaceName] = host
	m.rehomeMu.Unlock()
	center := m.Cluster.AddCenter(spaceName, reg, ep)
	center.OnDurability(func(ev cluster.DurabilityEvent) {
		m.Kernel.PublishTyped("cluster", ctxkernel.FederationWriteEvent{
			Space: spaceName, Key: ev.Key, Concern: string(ev.Concern),
			Acked: ev.Acked, Required: ev.Required,
			Durable: ev.Durable, Degraded: ev.Degraded, At: m.Clock.Now(),
		})
	})
	return center, nil
}

// onMemberChange reacts to gossip transitions: a dead declaration from a
// reporter that still holds quorum triggers failover re-homing, once per
// dead host no matter how many survivors report it. A failed attempt
// clears the dedupe flag and schedules a bounded retry — a transiently
// unreachable center or a mid-conviction race must not strand the dead
// host's applications forever.
func (m *Middleware) onMemberChange(reporter *cluster.Node, mem cluster.Member) {
	// Every transition is mirrored onto the kernel as a typed event (one
	// per reporting node — a Watch stream sees convictions converge).
	m.Kernel.PublishTyped("cluster", ctxkernel.MemberEvent{
		Host: mem.ID, Space: mem.Space, State: mem.State.String(),
		Incarnation: mem.Incarnation, At: m.Clock.Now(),
	})
	if mem.State == cluster.StateAlive {
		// A host coming back (healed partition, refuted rumor, restart)
		// re-arms failover for it: a later, real death must re-home again.
		// If its apps were re-homed while it was convicted, its local
		// copies are stale duplicates now — reconcile them away.
		m.rehomeMu.Lock()
		wasRehomed := m.rehomed[mem.ID]
		delete(m.rehomed, mem.ID)
		delete(m.rehomeTries, mem.ID)
		m.rehomeMu.Unlock()
		if wasRehomed {
			go m.reconcileRevived(mem.ID)
		}
		return
	}
	if mem.State != cluster.StateDead || !reporter.HasQuorum() {
		return
	}
	m.rehomeMu.Lock()
	if m.rehomed[mem.ID] {
		m.rehomeMu.Unlock()
		return
	}
	m.rehomed[mem.ID] = true
	m.rehomeMu.Unlock()
	// Off the gossip goroutine: re-homing talks to engines and centers.
	go m.rehomeAttempt(reporter, mem.ID)
}

// rehomeAttempt runs one failover attempt and schedules a retry with
// backoff on failure, up to maxRehomeAttempts.
func (m *Middleware) rehomeAttempt(reporter *cluster.Node, deadHost string) {
	if m.rehomeDead(reporter, deadHost) {
		return
	}
	m.rehomeMu.Lock()
	m.rehomeTries[deadHost]++
	tries := m.rehomeTries[deadHost]
	exhausted := tries >= maxRehomeAttempts
	if !exhausted {
		delete(m.rehomed, deadHost) // let a concurrent reporter claim it
	}
	m.rehomeMu.Unlock()
	if exhausted {
		return
	}
	delay := m.Cluster.Config().SuspicionTimeout * time.Duration(tries)
	time.AfterFunc(delay, func() {
		m.rehomeMu.Lock()
		claimed := m.rehomed[deadHost]
		if !claimed {
			m.rehomed[deadHost] = true
		}
		m.rehomeMu.Unlock()
		if !claimed {
			m.rehomeAttempt(reporter, deadHost)
		}
	})
}

// rehomeDead relaunches every application the dead host was running on
// the best surviving host, planning against a surviving space center:
// centers are co-located with their space's first host, so the dead
// host may have taken its own space's center down with it — pick a
// replica whose host the reporter still sees alive.
func (m *Middleware) rehomeDead(reporter *cluster.Node, deadHost string) bool {
	// Last-chance liveness check: a stale death certificate landing after
	// a healed partition can convict a host that is actually up, and
	// re-homing a live host's applications creates duplicates. If the
	// "dead" host answers a direct probe, abort — the ack already carried
	// its refutation, and the alive transition re-arms failover.
	if !reporter.ConfirmDead(deadHost) {
		m.rehomeMu.Lock()
		delete(m.rehomed, deadHost)
		m.rehomeMu.Unlock()
		return true
	}
	now := m.Clock.Now()
	m.Kernel.PublishTyped("cluster", ctxkernel.HostDeadEvent{
		Host: deadHost, Reporter: reporter.Self().ID, At: now,
	})
	center, ok := m.survivingCenter(reporter, deadHost)
	if !ok {
		m.Kernel.PublishTyped("cluster", ctxkernel.RehomeFailedEvent{
			Host: deadHost, Error: "no surviving registry center", At: now,
		})
		return false
	}
	f := &cluster.Failover{
		Center: center, Alive: reporter.AliveHosts,
		Launch: func(rec registry.AppRecord, target string, snap *state.SnapshotRecord) (registry.AppRecord, bool, error) {
			rt, ok := m.Host(target)
			if !ok {
				return registry.AppRecord{}, false, fmt.Errorf("core: unknown failover target %q", target)
			}
			return rt.Relaunch(rec, snap)
		},
		RestoreState: m.Cluster.Config().ReplicateState,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := f.Rehome(ctx, deadHost)
	for _, r := range done {
		m.Kernel.PublishTyped("cluster", ctxkernel.RehomedEvent{
			App: r.App, From: r.From, To: r.To, Space: r.NewSpace,
			Restored: r.Restored, At: m.Clock.Now(),
		})
		if r.Restored {
			m.Kernel.PublishTyped("cluster", ctxkernel.StateRestoredEvent{
				App: r.App, To: r.To, Seq: r.SnapshotSeq, At: m.Clock.Now(),
			})
		}
	}
	if err != nil {
		m.Kernel.PublishTyped("cluster", ctxkernel.RehomeFailedEvent{
			Host: deadHost, Error: err.Error(), At: m.Clock.Now(),
		})
		return false
	}
	return true
}

// reconcileRevived stops a returned host's superseded application
// copies: while the host was (falsely) convicted, failover re-homed its
// running apps onto survivors and tombstoned their records here, so the
// returning instances are stale duplicates — without this, the same app
// runs live on two hosts and (with ReplicateState) both replicators
// fight over one snapshot key. The revived host's own center may itself
// still be catching up on the federation history, so poll for a bounded
// number of anti-entropy rounds before giving up. The local instance is
// suspended and removed but its snapshot is NOT tombstoned: the snapshot
// key now belongs to the app's new home.
func (m *Middleware) reconcileRevived(host string) {
	rt, ok := m.Host(host)
	if !ok || m.Cluster == nil {
		return
	}
	center, ok := m.Cluster.Center(rt.Space)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	syncInterval := m.Cluster.Config().SyncInterval
	// Poll the FULL window: "the registry says this host still owns it"
	// is exactly what this host's center reports before anti-entropy
	// delivers the failover tombstone, so a clean-looking round proves
	// nothing — only an empty engine ends reconciliation early.
	for round := 0; round < 100; round++ {
		apps := rt.Engine.Apps()
		if len(apps) == 0 {
			return
		}
		for _, inst := range apps {
			name := inst.Name()
			rec, found, err := center.LookupApp(ctx, name, host)
			runningHere := err == nil && found && rec.Running
			if runningHere {
				continue // possibly stale; re-checked next round
			}
			installs, err := center.Registry().FindApp(name)
			if err != nil {
				continue
			}
			elsewhere := ""
			for _, other := range installs {
				if other.Host != host && other.Running {
					elsewhere = other.Host
					break
				}
			}
			if elsewhere == "" {
				continue // tombstone seen but no new home yet: wait
			}
			// Tombstoned here, running elsewhere: our copy is stale.
			if inst.State() == app.Running {
				_ = inst.Suspend()
			}
			rt.Engine.Remove(name)
			// The stale replica's snapshots may have won the federation's
			// latest slot (its capture sequence kept growing during the
			// partition); force the new home to republish past them.
			if ort, ok := m.Host(elsewhere); ok && ort.Replicator != nil {
				ort.Replicator.ForceRepublish(name)
			}
			m.Kernel.PublishTyped("cluster", ctxkernel.SupersededEvent{
				App: name, Host: host, RunningOn: elsewhere, At: m.Clock.Now(),
			})
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(syncInterval):
		}
	}
}

// survivingCenter picks a registry center whose co-located host the
// reporter believes alive, preferring the reporter's own space and
// falling back through the remaining spaces in sorted order.
func (m *Middleware) survivingCenter(reporter *cluster.Node, deadHost string) (*cluster.Center, bool) {
	spaces := append([]string{reporter.Self().Space}, m.Cluster.Spaces()...)
	for _, space := range spaces {
		m.rehomeMu.Lock()
		host := m.centerHosts[space]
		m.rehomeMu.Unlock()
		if host == "" || host == deadHost {
			continue
		}
		if mem, ok := reporter.Member(host); !ok || mem.State != cluster.StateAlive {
			continue
		}
		if center, ok := m.Cluster.Center(space); ok {
			return center, true
		}
	}
	return nil, false
}

// AddGateway provisions a gateway host bridging its space.
func (m *Middleware) AddGateway(host, spaceName string, profile netsim.HostProfile) error {
	if _, err := m.Net.AddGateway(host, spaceName, profile); err != nil {
		return err
	}
	if err := m.Directory.AddHost(host, spaceName); err != nil {
		return err
	}
	return m.Directory.SetGateway(spaceName, host)
}

// Host returns a host runtime.
func (m *Middleware) Host(host string) (*HostRuntime, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.hosts[host]
	return rt, ok
}

// host is Host with the control plane's typed refusal for a miss.
func (m *Middleware) host(host string) (*HostRuntime, error) {
	rt, ok := m.Host(host)
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ctl.ErrUnknownHost, host)
	}
	return rt, nil
}

// Hosts lists provisioned host ids, sorted.
func (m *Middleware) Hosts() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.hosts))
	for h := range m.hosts {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// AddRoom places a room (with its Cricket beacon) at a position and
// assigns the serving host.
func (m *Middleware) AddRoom(room, host string, center sensor.Point) error {
	if err := m.Directory.AssignRoom(room, host); err != nil {
		return err
	}
	m.Field.AddRoom(room, center)
	return nil
}

// AddUser registers a badge-wearing user starting in a room.
func (m *Middleware) AddUser(user, badge, room string) error {
	return m.Field.AddBadge(badge, user, room)
}

// RunApp starts a constructed application on a host and registers it.
func (m *Middleware) RunApp(ctx context.Context, host string, inst *app.Application) error {
	rt, err := m.host(host)
	if err != nil {
		return err
	}
	return rt.Run(ctx, inst)
}

// StopApp gracefully stops a running application on a host
// (HostRuntime.Stop).
func (m *Middleware) StopApp(ctx context.Context, host, appName string) error {
	rt, err := m.host(host)
	if err != nil {
		return err
	}
	return rt.Stop(ctx, appName)
}

// InstallApp provisions an application skeleton factory on a host
// (HostRuntime.Install).
func (m *Middleware) InstallApp(ctx context.Context, host, appName string, desc wsdl.Description, components []string, factory func(host string) *app.Application) error {
	rt, err := m.host(host)
	if err != nil {
		return err
	}
	return rt.Install(ctx, appName, desc, components, factory)
}

// RegisterResource records a resource in the registry center — the
// owning host's space center when clustered (whence it replicates to
// every space), else the single center.
func (m *Middleware) RegisterResource(res owl.Resource) error {
	if m.Cluster != nil {
		if space, ok := m.Directory.SpaceOfHost(res.Host); ok {
			if center, ok := m.Cluster.Center(space); ok {
				return state.IgnoreNotDurable(center.RegisterResource(context.Background(), res))
			}
		}
	}
	return m.Registry.RegisterResource(res)
}

// FindApp returns the host currently running an application instance, if
// any engine holds it.
func (m *Middleware) FindApp(appName string) (*app.Application, string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for h, rt := range m.hosts {
		if inst, ok := rt.Engine.App(appName); ok {
			return inst, h, true
		}
	}
	return nil, "", false
}

// StartAgents deploys an MA manager on every host (once) and an AA for
// the (user, app) policy on every host — whichever host currently runs
// the app reacts, so follow-me works across any number of hops (the
// paper's per-host AA/MA managers, Fig. 2). Cancellation is checked
// between hosts.
func (m *Middleware) StartAgents(ctx context.Context, policy agents.Policy) error {
	m.mu.Lock()
	hosts := make([]*HostRuntime, 0, len(m.hosts))
	for _, rt := range m.hosts {
		hosts = append(hosts, rt)
	}
	m.mu.Unlock()
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Host < hosts[j].Host })
	for _, rt := range hosts {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: start agents interrupted: %w", err)
		}
		maName := "ma@" + rt.Host
		if _, ok := rt.Container.Agent(maName); !ok {
			if _, err := agents.StartMobileAgent(rt.Container, maName, rt.Engine); err != nil {
				return err
			}
		}
		aaName := fmt.Sprintf("aa@%s/%s@%s", policy.User, policy.App, rt.Host)
		body := &agents.AutonomousBody{
			Policy: policy, Kernel: m.Kernel, Dir: m.Directory,
			Net: m.Net, Engine: rt.Engine, MAName: maName, Locator: m.Fusion,
		}
		if _, err := agents.StartAutonomousAgent(rt.Container, aaName, body); err != nil {
			return err
		}
	}
	return nil
}

// Walk replays a movement script through the sensor field and fusion,
// driving the whole context -> agent -> migration pipeline.
func (m *Middleware) Walk(ctx context.Context, script sensor.Script) error {
	w := sensor.NewWalker(m.Field, m.cfg.SensorTick)
	return w.Run(ctx, script, m.Fusion.Consume)
}

// Migrate follow-mes a running application, wherever it runs, to destHost
// (HostRuntime.Migrate on the host that holds it).
func (m *Middleware) Migrate(ctx context.Context, appName, destHost string, binding migrate.BindingMode) (migrate.Report, error) {
	_, srcHost, ok := m.FindApp(appName)
	if !ok {
		return migrate.Report{}, fmt.Errorf("core: %w: %q is not running anywhere", ctl.ErrAppNotFound, appName)
	}
	if _, err := m.host(destHost); err != nil {
		return migrate.Report{}, err
	}
	rt, _ := m.Host(srcHost)
	return rt.Migrate(ctx, appName, destHost, binding)
}

// WaitAppOn blocks until the app runs on host, the timeout expires, or
// ctx is canceled — migrations triggered by agents complete
// asynchronously to Walk. It waits on kernel events that signal an
// arrival (app.started, app.migrated, cluster.rehomed) and re-checks the
// engine on each; a coarse poll remains only as a fallback for arrival
// paths that bypass the kernel. A zero timeout waits on ctx alone.
func (m *Middleware) WaitAppOn(ctx context.Context, appName, host string, timeout time.Duration) error {
	rt, err := m.host(host)
	if err != nil {
		return err
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	running := func() bool {
		inst, ok := rt.Engine.App(appName)
		return ok && inst.State() == app.Running
	}
	// Subscribe before the first check so an arrival between check and
	// wait cannot be missed.
	kick := make(chan struct{}, 1)
	arrivalTopics := []string{
		ctxkernel.TopicAppStarted, ctxkernel.TopicAppMigrated, ctxkernel.TopicClusterRehomed,
	}
	subs := make([]int, 0, len(arrivalTopics))
	for _, topic := range arrivalTopics {
		subs = append(subs, m.Kernel.Subscribe(topic, func(ev ctxkernel.Event) {
			if ev.Attr("app") != appName {
				return
			}
			select {
			case kick <- struct{}{}:
			default:
			}
		}))
	}
	defer func() {
		for _, id := range subs {
			m.Kernel.Unsubscribe(id)
		}
	}()
	// Fallback poll: resume-after-suspend and direct engine runs do not
	// cross the kernel; a coarse tick covers them without the old 1 ms
	// busy-wait.
	fallback := time.NewTicker(25 * time.Millisecond)
	defer fallback.Stop()
	for {
		if running() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: %s not running on %s: %w", appName, host, ctx.Err())
		case <-kick:
		case <-fallback.C:
		}
	}
}

// Close tears the deployment down.
func (m *Middleware) Close() error {
	m.mu.Lock()
	reps := make([]*state.Replicator, 0, len(m.hosts))
	for _, rt := range m.hosts {
		if rt.Replicator != nil {
			reps = append(reps, rt.Replicator)
		}
	}
	m.mu.Unlock()
	for _, rep := range reps {
		rep.Stop()
	}
	if m.Cluster != nil {
		m.Cluster.Stop()
	}
	err := m.Fabric.Close()
	if cerr := m.db.Close(); err == nil {
		err = cerr
	}
	return err
}
