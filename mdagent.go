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
// Each name here is used by examples/ or the root tests; everything else
// stays under internal/. See examples/ for complete programs and DESIGN.md
// for the architecture (§7 documents the control plane).
package mdagent

import (
	"mdagent/internal/agents"
	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/sensor"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// Deployment facade.
type (
	// Config parameterizes a Middleware deployment.
	Config = core.Config
	// Middleware is one MDAgent deployment (a whole pervasive environment).
	Middleware = core.Middleware
	// ClusterConfig enables and tunes the distribution layer (beyond the
	// paper): gossip membership, one replicating registry center per smart
	// space, and failover re-homing of a dead host's applications.
	ClusterConfig = cluster.Config
)

// New builds a deployment from cfg.
func New(cfg Config) (*Middleware, error) { return core.New(cfg) }

// StateDead is the membership state of a host the cluster convicted.
const StateDead = cluster.StateDead

// Application model (paper Fig. 3).
type (
	// Application is one running application instance.
	Application = app.Application
	// UIComponent is an adaptable presentation.
	UIComponent = app.UIComponent
	// UserProfile carries per-user preferences.
	UserProfile = app.UserProfile
)

// BindingAdaptive selects the paper's adaptive component binding (§3.2),
// against the static whole-application baseline.
const BindingAdaptive = migrate.BindingAdaptive

// MeasureRoundTrip performs the paper's Fig. 7 skew-canceling two-leg
// measurement.
var MeasureRoundTrip = migrate.MeasureRoundTrip

// Control plane (versioned remote API; cmd/mdctl is the CLI).
type (
	// Client is the typed control-plane client: lifecycle
	// (RunApp/StopApp/Migrate/InstallApp), introspection (Members, Apps
	// with snapshot metadata, Snapshots, Stats), and a server-streamed
	// Watch of typed events. It speaks the same versioned protocol to an
	// in-process deployment (ServeControl) and to the TCP daemons.
	Client = ctl.Client
	// AppInfo is one installation record with snapshot-head metadata.
	AppInfo = ctl.AppInfo
	// MigrateRequest asks the control plane to follow-me an app.
	MigrateRequest = ctl.MigrateRequest
	// MigratedEvent reports a completed migration (agent- or
	// operator-driven) with its three-phase timing split.
	MigratedEvent = ctxkernel.AppMigratedEvent
)

// NewControlClient creates a control-plane client calling the server
// endpoint through ep.
var NewControlClient = ctl.NewClient

// ProtoVersion is the newest control-plane (and registry/snapshot)
// wire protocol version this build speaks — what ServerInfo.Proto
// reports. Each op has one encoding, and a peer offering another is
// refused with ErrVersion.
const ProtoVersion = transport.MaxProto

// Typed sentinel errors shared by in-process and remote callers.
var (
	// ErrUnknownHost reports an operation addressed to an unprovisioned
	// host.
	ErrUnknownHost = ctl.ErrUnknownHost
	// ErrAppNotFound reports an operation on an app the target is not
	// running (and has no skeleton for).
	ErrAppNotFound = ctl.ErrAppNotFound
	// ErrUnknownApp reports an install of an app the target host cannot
	// assemble: no compiled-in factory and no stored bundle.
	ErrUnknownApp = ctl.ErrUnknownApp
	// ErrVersion reports a wire frame whose protocol version the peer
	// does not speak.
	ErrVersion = transport.ErrVersion
)

// DefaultPolicy returns the paper's defaults for an autonomous agent
// watching a (user, app) pair (§4.3).
func DefaultPolicy(user, appName string) agents.Policy { return agents.DefaultPolicy(user, appName) }

// TopicMigrated is the bus topic of a completed migration.
const TopicMigrated = agents.TopicMigrated

// Context layer (paper §3.4, §4.1).
type (
	// Event is one context fact on the kernel's bus.
	Event = ctxkernel.Event
	// Point is a 2-D coordinate in meters.
	Point = sensor.Point
	// Script is a scripted user movement path.
	Script = sensor.Script
	// Step is one leg of a movement path.
	Step = sensor.Step
)

// TopicUserEntered is the bus topic of a user appearing in a room.
const TopicUserEntered = ctxkernel.TopicUserEntered

// MatchSemantic selects ontology-based resource matching (paper §4.4).
const MatchSemantic = owl.MatchSemantic

// DeviceProfile describes a device's capabilities (paper §4.2.2).
type DeviceProfile = wsdl.DeviceProfile

// HostProfile models a host's compute characteristics (paper §5's
// evaluation hardware).
type HostProfile = netsim.HostProfile

// Testbed presets.
var (
	Pentium4_1700 = netsim.Pentium4_1700
	PentiumM_1600 = netsim.PentiumM_1600
)

// Media generators (paper §5's demo payloads).
var (
	GenerateFile = media.GenerateFile
	GenerateDeck = media.GenerateDeck
)
