// Package mdagent is the public API of the MDAgent middleware — a Go
// reproduction of "A Middleware Support for Agent-Based Application
// Mobility in Pervasive Environments" (Zhou, Cao, Raychoudhury, Siebert,
// Lu; ICDCS 2007 Workshops).
//
// MDAgent migrates running applications between hosts in a pervasive
// environment. Autonomous agents watch context events (user location from
// simulated Cricket sensors, network conditions), reason over an OWL/RDF
// resource ontology with a Jena-style rule engine, and decide when, where
// and which application components to move; mobile agents wrap the chosen
// components and carry them. Two mobility modes are supported: follow-me
// (cut-paste) and clone-dispatch (copy-paste with synchronization links),
// and two binding designs: adaptive component binding (this paper) and
// static whole-application binding (the authors' earlier system, used as
// the evaluation baseline).
//
// A minimal deployment. Operation methods take a context.Context and
// honor cancellation; typed sentinel errors (ErrUnknownHost,
// ErrAppNotFound) satisfy errors.Is both in-process and across the
// control-plane wire:
//
//	mw, err := mdagent.New(mdagent.Config{})
//	// provision spaces, hosts, rooms, users ...
//	mw.AddSpace("lab")
//	mw.AddHost("hostA", "lab", mdagent.Pentium4_1700(), dev, 0)
//	mw.AddRoom("office821", "hostA", mdagent.Point{X: 0, Y: 0})
//	mw.AddUser("alice", "badge-1", "office821")
//	// run an application and let the agents follow the user
//	ctx := context.Background()
//	mw.RunApp(ctx, "hostA", player)
//	mw.StartAgents(ctx, mdagent.DefaultPolicy("alice", "smart-media-player"))
//	mw.Walk(ctx, script)
//	mw.WaitAppOn(ctx, "smart-media-player", "hostB", 10*time.Second)
//
// The same deployment is operable from outside through the versioned
// control plane: ServeControl binds it onto a transport endpoint, and a
// Client (or cmd/mdctl against the TCP daemons) can run, stop, migrate,
// inspect, Watch typed events, and push and install signed bundles:
//
//	ep, _ := mw.Fabric.Attach("operator", "")
//	mw.ServeControl(ep)
//	cli := mdagent.NewControlClient(ep, "operator")
//	events, _ := cli.Watch(ctx, "cluster.*")
//	cli.Migrate(ctx, mdagent.MigrateRequest{App: "smart-media-player", To: "hostB"})
//
// See examples/ for complete programs and DESIGN.md for the architecture
// (§7 documents the control plane).
package mdagent

import (
	"mdagent/internal/agents"
	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/sensor"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// Deployment facade.
type (
	// Config parameterizes a Middleware deployment.
	Config = core.Config
	// Middleware is one MDAgent deployment (a whole pervasive environment).
	Middleware = core.Middleware
	// HostRuntime is everything MDAgent runs on one host.
	HostRuntime = core.HostRuntime
)

// New builds a deployment from cfg.
func New(cfg Config) (*Middleware, error) { return core.New(cfg) }

// Application model (paper Fig. 3).
type (
	// Application is one running application instance.
	Application = app.Application
	// Component is a migratable application part.
	Component = app.Component
	// ComponentKind classifies components (logic, UI, data, state).
	ComponentKind = app.ComponentKind
	// StateComponent is a small key-value state component.
	StateComponent = app.StateComponent
	// BlobComponent is an opaque payload component.
	BlobComponent = app.BlobComponent
	// UIComponent is an adaptable presentation.
	UIComponent = app.UIComponent
	// Coordinator is the observer-pattern state hub.
	Coordinator = app.Coordinator
	// StateChange is one observable state mutation.
	StateChange = app.StateChange
	// UserProfile carries per-user preferences.
	UserProfile = app.UserProfile
	// Adaptation is a device-adaptation plan.
	Adaptation = app.Adaptation
	// Wrap is the serialized bundle a mobile agent carries.
	Wrap = app.Wrap
)

// Component kinds.
const (
	KindLogic = app.KindLogic
	KindUI    = app.KindUI
	KindData  = app.KindData
	KindState = app.KindState
)

// NewApplication creates a running application instance.
func NewApplication(name, host string, desc Description) *Application {
	return app.New(name, host, desc)
}

// Component constructors.
var (
	NewBlob      = app.NewBlob
	NewSizedBlob = app.NewSizedBlob
	NewState     = app.NewState
	NewUI        = app.NewUI
)

// Mobility (paper §3.2, Fig. 1).
type (
	// Report is a migration outcome with the three-phase timing split.
	Report = migrate.Report
	// BindingMode selects adaptive vs static component binding.
	BindingMode = migrate.BindingMode
	// MobilityMode selects follow-me vs clone-dispatch.
	MobilityMode = migrate.Mode
	// CostProfile calibrates platform overheads.
	CostProfile = migrate.CostProfile
	// RoundTrip is the paper's Fig. 7 skew-canceling measurement.
	RoundTrip = migrate.RoundTrip
	// Engine is a host's migration engine.
	Engine = migrate.Engine
)

// Mobility constants.
const (
	BindingAdaptive = migrate.BindingAdaptive
	BindingStatic   = migrate.BindingStatic
	FollowMe        = migrate.FollowMe
	CloneDispatch   = migrate.CloneDispatch
)

// DefaultCosts returns the calibration used for the paper reproduction.
func DefaultCosts() CostProfile { return migrate.DefaultCosts() }

// MeasureRoundTrip performs the Fig. 7 two-leg measurement.
var MeasureRoundTrip = migrate.MeasureRoundTrip

// Distribution layer (beyond the paper: gossip membership, federated
// registry centers, failover re-homing). Enable it with
// Config{Cluster: &mdagent.ClusterConfig{}}; the deployment then runs
// one replicating registry center per smart space, a SWIM-style
// membership node per host, and automatically re-homes a dead host's
// applications onto the best survivor.
type (
	// ClusterConfig tunes gossip cadence, failure-detection windows and
	// federation anti-entropy.
	ClusterConfig = cluster.Config
	// Cluster is a deployment's distribution layer (Middleware.Cluster).
	Cluster = cluster.Cluster
	// ClusterMember is one host's entry in the gossip membership table.
	ClusterMember = cluster.Member
	// MemberState is a member's health (alive / suspect / dead).
	MemberState = cluster.State
	// RegistryCenter is one smart space's federated registry center.
	RegistryCenter = cluster.Center
	// WriteConcern selects federation write durability (async, one,
	// quorum): how many peer centers must synchronously acknowledge a
	// write before it returns (ClusterConfig.WriteConcern, overridable
	// per snapshot put).
	WriteConcern = cluster.WriteConcern
	// DurabilityEvent is the outcome of one synchronous-concern write
	// (RegistryCenter.OnDurability; bridged onto the kernel as
	// cluster.durable / cluster.degraded events).
	DurabilityEvent = cluster.DurabilityEvent
)

// Membership states.
const (
	StateAlive   = cluster.StateAlive
	StateSuspect = cluster.StateSuspect
	StateDead    = cluster.StateDead
)

// Federation write concerns.
const (
	WriteAsync  = cluster.WriteAsync
	WriteOne    = cluster.WriteOne
	WriteQuorum = cluster.WriteQuorum
)

// ErrNotDurable reports a federation write that landed locally but fell
// short of its write concern (too few peer acks); anti-entropy keeps
// retrying delivery. Replicators react by re-queueing the capture.
var ErrNotDurable = cluster.ErrNotDurable

// ParseWriteConcern validates a write-concern string (flag boundary).
var ParseWriteConcern = cluster.ParseWriteConcern

// Cluster-layer event topics.
const (
	TopicHostDead        = core.TopicHostDead
	TopicRehomed         = core.TopicRehomed
	TopicRehomeFailed    = core.TopicRehomeFailed
	TopicSuperseded      = core.TopicSuperseded
	TopicStateReplicated = core.TopicStateReplicated
	TopicStateRestored   = core.TopicStateRestored
	TopicDurable         = core.TopicClusterDurable
	TopicDegraded        = core.TopicClusterDegraded
)

// State pipeline (snapshot codec + delta replication). With
// ClusterConfig.ReplicateState set, every host streams its applications'
// snapshots to its space's registry center (HostRuntime.Replicator) as a
// delta pipeline: unchanged applications are skipped without serializing
// a byte (per-component dirty counters), changed ones ship only their
// changed components as checksummed delta frames against the last acked
// base, and a center refuses a delta onto a long chain (the host then
// sends a fresh base) so failover restores from a short, single record.
// The federation replicates records
// to every peer space and failover restores the freshest copy, so
// re-homed applications resume where they left off.
type (
	// SnapshotRecord is one application's replicated snapshot: a full
	// base frame plus a bounded delta chain.
	SnapshotRecord = state.SnapshotRecord
	// SnapshotPut is one replication publish (full frame or delta).
	SnapshotPut = state.SnapshotPut
	// SnapshotStamp is a center's acknowledgement of a put.
	SnapshotStamp = state.SnapshotStamp
	// Replicator streams one host's application snapshots.
	Replicator = state.Replicator
	// ReplicationStats counts what a replicator shipped and skipped.
	ReplicationStats = state.Stats
	// WrapDelta is the changed-components-only form of a wrap.
	WrapDelta = state.WrapDelta
	// SnapshotClient is a remote state publisher speaking the snapshot
	// wire protocol a federated center serves (multi-process daemons).
	SnapshotClient = cluster.SnapshotClient
	// TaggedSnapshot is one recorded snapshot with provenance.
	TaggedSnapshot = app.TaggedSnapshot
)

// EncodeWrap frames a wrap with the versioned, checksummed state codec —
// the single wire format for migration and snapshot replication.
func EncodeWrap(w Wrap) ([]byte, error) { return state.EncodeWrap(w) }

// DecodeWrap verifies and decodes a framed wrap. The wrap's components
// alias raw: do not write into raw afterwards.
func DecodeWrap(raw []byte) (Wrap, error) { return state.DecodeWrap(raw) }

// EncodeDelta frames a changed-components-only delta.
func EncodeDelta(d WrapDelta) ([]byte, error) { return state.EncodeDelta(d) }

// DecodeDelta verifies and decodes a delta frame.
func DecodeDelta(raw []byte) (WrapDelta, error) { return state.DecodeDelta(raw) }

// ApplyDelta reassembles the full wrap a delta describes over its base
// (digest-checked; state.ErrBaseMismatch on any other base).
func ApplyDelta(base Wrap, d WrapDelta) (Wrap, error) { return state.ApplyDelta(base, d) }

// WrapDigest hashes a wrap's content canonically — the digest the delta
// pipeline chains captures with.
func WrapDigest(w Wrap) [32]byte { return state.WrapDigest(w) }

// Portable app bundles (signed, secret-free app distribution). A bundle
// packs an application's manifest — components, resource references, an
// optional initial-state frame — into one Ed25519-signed artifact that
// any host in the federation can instantiate without a compiled-in
// factory. Secrets never ride in a bundle: the manifest carries ref://
// references that a Resolver answers from the environment or a secrets
// file at install time. Bundles are pushed and installed through the
// control plane (Client.PushBundle / InstallBundle, `mdctl bundle push`),
// not through Middleware methods: push one to any registry center — or a
// host daemon, which forwards it to its center — and every space
// replicates it; install it on any host.
type (
	// Bundle is a verified (or inspected) portable app bundle.
	Bundle = bundle.Bundle
	// BundleManifest declares what a bundle assembles.
	BundleManifest = bundle.Manifest
	// BundleComponentSpec is one declared component (name + kind).
	BundleComponentSpec = bundle.ComponentSpec
	// BundleSecretRef is one named ref:// secret reference.
	BundleSecretRef = bundle.SecretRef
	// SecretResolver answers ref://env/... and ref://file/... references.
	SecretResolver = bundle.Resolver
)

// Bundle codec and helpers.
var (
	// PackBundle assembles and signs a bundle.
	PackBundle = bundle.Pack
	// OpenBundle verifies a bundle against trusted publisher keys.
	OpenBundle = bundle.Open
	// InspectBundle decodes a bundle without a trust decision.
	InspectBundle = bundle.Inspect
	// InstantiateBundle builds an application factory from a bundle.
	InstantiateBundle = bundle.Instantiate
	// GenerateBundleKey mints an Ed25519 signing keypair.
	GenerateBundleKey = bundle.GenerateKey
	// LoadSecretsFile parses a key=value secrets file into a Resolver.
	LoadSecretsFile = bundle.LoadSecretsFile
)

// Bundle refusal sentinels (errors.Is works across the wire).
var (
	// ErrBundleNotBundle reports bytes that are not a bundle at all.
	ErrBundleNotBundle = bundle.ErrNotBundle
	// ErrBundleVersion reports a bundle format version this build does
	// not speak.
	ErrBundleVersion = bundle.ErrVersion
	// ErrBundleCorrupt reports structural or checksum damage.
	ErrBundleCorrupt = bundle.ErrCorrupt
	// ErrBundleUnsigned reports a bundle with no signature section.
	ErrBundleUnsigned = bundle.ErrUnsigned
	// ErrBundleBadSignature reports a signature that does not verify.
	ErrBundleBadSignature = bundle.ErrBadSignature
	// ErrBundleUntrustedKey reports a valid signature by an untrusted key.
	ErrBundleUntrustedKey = bundle.ErrUntrustedKey
	// ErrBundleSecret reports a secret reference that failed to resolve.
	ErrBundleSecret = bundle.ErrSecret
)

// Control plane (versioned remote API; cmd/mdctl is the CLI).
type (
	// Client is the typed control-plane client: lifecycle
	// (RunApp/StopApp/Migrate/InstallApp), introspection (Members, Apps
	// with snapshot metadata, Snapshots, Stats), and a server-streamed
	// Watch of typed events. It speaks the same versioned protocol to an
	// in-process deployment (ServeControl) and to the TCP daemons.
	Client = ctl.Client
	// ControlServer serves the control plane over transport endpoints.
	ControlServer = ctl.Server
	// ControlBackend is the pluggable surface a ControlServer exposes.
	ControlBackend = ctl.Backend
	// ServerInfo describes a control-plane endpoint (role, protocol).
	ServerInfo = ctl.ServerInfo
	// MemberInfo is one gossip membership entry with its incarnation.
	MemberInfo = ctl.MemberInfo
	// AppInfo is one installation record with snapshot-head metadata.
	AppInfo = ctl.AppInfo
	// SnapshotHead is a replicated snapshot's listable metadata
	// (sequence, delta chain, durability) without its frames.
	SnapshotHead = state.SnapshotHead
	// HostStats is one host replicator's counters.
	HostStats = ctl.HostStats
	// MigrateRequest asks the control plane to follow-me an app.
	MigrateRequest = ctl.MigrateRequest
	// MigrateResult is the migration outcome with phase timings.
	MigrateResult = ctl.MigrateResult
	// WatchEvent is one streamed event (bus form + typed form).
	WatchEvent = ctl.WatchEvent
)

// NewControlClient creates a control-plane client calling the server
// endpoint through ep.
var NewControlClient = ctl.NewClient

// ControlAlias is the well-known endpoint alias every control-plane TCP
// daemon answers to — mdctl needs only an address.
const ControlAlias = ctl.Alias

// ProtoVersion is the newest control-plane (and registry/snapshot)
// wire protocol version this build speaks — what ServerInfo.Proto
// reports. v2 is the binary fast path snapshot puts, watch pushes and
// bundle pushes ride; each op has one encoding, and a peer offering
// another is refused with ErrVersion.
const ProtoVersion = transport.MaxProto

// Typed sentinel errors shared by in-process and remote callers.
var (
	// ErrUnknownHost reports an operation addressed to an unprovisioned
	// host.
	ErrUnknownHost = ctl.ErrUnknownHost
	// ErrAppNotFound reports an operation on an app the target is not
	// running (and has no skeleton for).
	ErrAppNotFound = ctl.ErrAppNotFound
	// ErrUnsupported reports an operation this control-plane endpoint
	// does not serve.
	ErrUnsupported = ctl.ErrUnsupported
	// ErrUnknownApp reports an install of an app the target host cannot
	// assemble: no compiled-in factory and no stored bundle.
	ErrUnknownApp = ctl.ErrUnknownApp
	// ErrVersion reports a wire frame whose protocol version the peer
	// does not speak.
	ErrVersion = transport.ErrVersion
)

// Typed events (the control plane's Watch payloads and the kernel's
// exported catalog; string topics remain the bus encoding).
type (
	// TypedEvent is one exported event in struct form.
	TypedEvent = ctxkernel.TypedEvent
	// EventTopic enumerates the exported event kinds.
	EventTopic = ctxkernel.Topic
	// MigratedEvent reports a completed migration (agent- or
	// operator-driven) with its three-phase timing split.
	MigratedEvent = ctxkernel.AppMigratedEvent
	// MigrateFailedEvent reports a migration attempt that did not land.
	MigrateFailedEvent = ctxkernel.AppMigrateFailedEvent
	// AppStartedEvent reports an application run on a host.
	AppStartedEvent = ctxkernel.AppStartedEvent
	// AppStoppedEvent reports a graceful stop.
	AppStoppedEvent = ctxkernel.AppStoppedEvent
	// MemberEvent is one gossip membership transition.
	MemberEvent = ctxkernel.MemberEvent
	// HostDeadEvent reports a quorum death conviction.
	HostDeadEvent = ctxkernel.HostDeadEvent
	// RehomedEvent reports one application relaunched by failover.
	RehomedEvent = ctxkernel.RehomedEvent
	// RehomeFailedEvent reports failover that could not re-home.
	RehomeFailedEvent = ctxkernel.RehomeFailedEvent
	// SupersededEvent reports a revived host stopping its stale copy.
	SupersededEvent = ctxkernel.SupersededEvent
	// StateReplicatedEvent reports one snapshot publish.
	StateReplicatedEvent = ctxkernel.StateReplicatedEvent
	// StateRestoredEvent reports a snapshot-backed failover restore.
	StateRestoredEvent = ctxkernel.StateRestoredEvent
	// FederationWriteEvent is a durable/degraded write outcome.
	FederationWriteEvent = ctxkernel.FederationWriteEvent
	// UserEnteredEvent reports a user appearing in a room.
	UserEnteredEvent = ctxkernel.UserEnteredEvent
	// UserLeftEvent reports a user leaving a room.
	UserLeftEvent = ctxkernel.UserLeftEvent
)

// EventFromBus decodes a bus event into its typed form (GenericEvent
// for topics outside the catalog).
var EventFromBus = ctxkernel.FromBus

// ParseEventTopic maps a bus topic string to its exported kind.
var ParseEventTopic = ctxkernel.ParseTopic

// Agents (paper §4.3).
type (
	// Policy configures an autonomous agent's decisions.
	Policy = agents.Policy
	// MoveOrder is the AA -> MA command payload.
	MoveOrder = agents.MoveOrder
)

// DefaultPolicy returns the paper's defaults for a (user, app) pair.
func DefaultPolicy(user, appName string) Policy { return agents.DefaultPolicy(user, appName) }

// Agent-layer event topics.
const (
	TopicMigrated      = agents.TopicMigrated
	TopicMigrateFailed = agents.TopicMigrateFailed
)

// Context layer (paper §3.4, §4.1).
type (
	// Event is one context fact.
	Event = ctxkernel.Event
	// Kernel is the pub/sub context hub.
	Kernel = ctxkernel.Kernel
)

// Context topics.
const (
	TopicUserEntered  = ctxkernel.TopicUserEntered
	TopicUserLeft     = ctxkernel.TopicUserLeft
	TopicUserLocation = ctxkernel.TopicUserLocation
	TopicNetworkRTT   = ctxkernel.TopicNetworkRTT
)

// Sensors (paper §4.1).
type (
	// Point is a 2-D coordinate in meters.
	Point = sensor.Point
	// Script is a scripted user movement path.
	Script = sensor.Script
	// Step is one leg of a movement path.
	Step = sensor.Step
)

// Resources and matching (paper §4.4).
type (
	// Resource describes one resource instance on a host.
	Resource = owl.Resource
	// MatchMode selects syntactic vs semantic matching.
	MatchMode = owl.MatchMode
	// Rebinding is a resource rebinding plan.
	Rebinding = owl.Rebinding
)

// Match modes and rebinding actions.
const (
	MatchSyntactic = owl.MatchSyntactic
	MatchSemantic  = owl.MatchSemantic
	RebindUseLocal = owl.RebindUseLocal
	RebindCarry    = owl.RebindCarry
	RebindRemote   = owl.RebindRemote
)

// Descriptions and devices (paper §4.2.2).
type (
	// Description is a WSDL-like interface description.
	Description = wsdl.Description
	// DeviceProfile describes a device's capabilities.
	DeviceProfile = wsdl.DeviceProfile
)

// Testbed modeling (paper §5's evaluation hardware).
type (
	// HostProfile models a host's compute characteristics.
	HostProfile = netsim.HostProfile
	// LinkProfile models a network link.
	LinkProfile = netsim.LinkProfile
)

// Testbed presets.
var (
	Pentium4_1700 = netsim.Pentium4_1700
	PentiumM_1600 = netsim.PentiumM_1600
	Ethernet10    = netsim.Ethernet10
	Ethernet100   = netsim.Ethernet100
	WLAN11        = netsim.WLAN11
)

// Clocks.
type (
	// Clock is the time source for costed operations.
	Clock = vclock.Clock
	// VirtualClock advances only by cost charges (deterministic, fast).
	VirtualClock = vclock.Virtual
	// RealClock paces operations against the wall clock.
	RealClock = vclock.Real
)

// NewVirtualClock returns a Virtual clock starting at epoch.
var NewVirtualClock = vclock.NewVirtual

// Media (paper §5's demo payloads).
type (
	// MediaFile is one media payload with integrity metadata.
	MediaFile = media.File
	// SlideDeck is a presentation deck.
	SlideDeck = media.SlideDeck
)

// Media generators.
var (
	GenerateFile = media.GenerateFile
	GenerateDeck = media.GenerateDeck
)
