// Package ctl is MDAgent's versioned control plane: a typed
// request/response + streaming protocol over transport endpoints, and
// the client that speaks it (re-exported as mdagent.Client).
//
// The paper operates its middleware from inside the process; the TCP
// daemons that grew around the reproduction (cmd/mdagentd,
// cmd/mdregistry) had no way for an external operator to run, stop,
// migrate, or observe anything. The control plane closes that gap the
// way FIPA's interoperable-mobility proposal argues it must be closed:
// lifecycle and migration operations become a specified, versioned wire
// protocol instead of platform-internal calls.
//
// Every request payload is sealed with a protocol version byte
// (transport.Seal); a server refuses versions it does not speak with a
// typed transport.ErrVersion reply instead of misparsing the body.
// Errors cross the wire as strings and map back to the typed sentinels
// below through transport.RemoteError.Is, so in-process and remote
// callers share one errors.Is contract.
//
// Watch is server-streamed: the client subscribes with a kernel topic
// pattern, the server pushes matching bus events in sequenced batches as
// one-way ctl.eventv2 messages (riding the transport's learned reply
// route, so it works over plain TCP without a listener on the client),
// and the client surfaces them as typed events (ctxkernel.TypedEvent).
//
// Every op has exactly one encoding: fast frames for the bundle push
// and the event push, a version-sealed gob body for everything else. A
// peer that offers anything else is refused with ErrVersion.
package ctl

import (
	"errors"
	"time"

	"mdagent/internal/ctxkernel"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// Control-plane message types. Request payloads are version-sealed; the
// reply body is plain gob (the request's version byte committed both
// sides to this protocol revision).
const (
	MsgInfo      = "ctl.info"
	MsgMembers   = "ctl.members"
	MsgApps      = "ctl.apps"
	MsgSnapshots = "ctl.snapshots"
	MsgStats     = "ctl.stats"
	MsgRun       = "ctl.run"
	MsgStop      = "ctl.stop"
	MsgMigrate   = "ctl.migrate"
	MsgInstall   = "ctl.install"
	MsgWatch     = "ctl.watch"
	MsgUnwatch   = "ctl.unwatch"
	// MsgBundlePush uploads a signed app bundle. The request payload is a
	// fast frame (transport.OpBundlePush: name + raw bytes), so a
	// multi-megabyte bundle skips gob's reflection walk and re-copy.
	MsgBundlePush = "ctl.bundle-push"
	// MsgBundleList lists the bundles stored at the serving center/host.
	MsgBundleList = "ctl.bundle-list"
	// MsgBundleInstall instantiates a stored bundle on the serving host.
	MsgBundleInstall = "ctl.bundle-install"
	// MsgMetrics snapshots the server process's obs metrics registry.
	MsgMetrics = "ctl.metrics"
	// MsgTrace returns an app's latest migration trace (obs.MigrationTrace).
	MsgTrace = "ctl.trace"
	// MsgEventV2 is the server->client stream push: one-way fast frames
	// (transport.OpEventBatch) carrying a whole flush window of
	// sequenced events.
	MsgEventV2 = "ctl.eventv2"
)

// Alias is the well-known extra endpoint name every control-plane TCP
// server answers to, so a client needs only an address — not the
// server's primary endpoint name — to reach the control plane.
const Alias = "ctl"

// Typed sentinel errors of the control plane. They are wrapped (never
// replaced) by operation errors, and their texts are distinctive enough
// to survive the wire: transport.RemoteError.Is matches them back so
// errors.Is works identically for in-process and remote callers.
var (
	// ErrUnknownHost reports an operation addressed to a host the
	// deployment has not provisioned.
	ErrUnknownHost = errors.New("mdagent: unknown host")
	// ErrAppNotFound reports an operation on an application the target
	// host is not running (and has no installed skeleton for).
	ErrAppNotFound = errors.New("mdagent: application not found")
	// ErrUnsupported reports an operation this control-plane endpoint
	// does not serve (e.g. lifecycle ops on a registry center).
	ErrUnsupported = errors.New("mdagent: operation not supported by this endpoint")
	// ErrReplayGap reports a watch replay request whose from-seq is no
	// longer covered by the server's event ring (aged out behind the
	// oldest retained event, or ahead of the stream). Callers fall back
	// to a live watch from now.
	ErrReplayGap = errors.New("mdagent: replay seq outside the retained event ring")
	// ErrUnknownApp reports an install of an application the target host
	// can not assemble: no compiled-in factory AND no stored bundle.
	// Distinct from ErrUnsupported (the endpoint serves installs, it
	// just has nothing to install) and from ErrAppNotFound (which is
	// about running instances, not installable artifacts). Remedy:
	// `mdctl bundle push` the app's bundle first.
	ErrUnknownApp = errors.New("mdagent: unknown application (no factory or bundle)")
	// ErrVersion aliases transport.ErrVersion: the request's protocol
	// version byte was refused by the server.
	ErrVersion = transport.ErrVersion
)

// The sentinels must survive the wire: register them so
// transport.RemoteError.Is maps their carried texts back to the typed
// errors (and nothing else — unregistered errors never match).
func init() {
	transport.RegisterWireSentinel(ErrUnknownHost)
	transport.RegisterWireSentinel(ErrAppNotFound)
	transport.RegisterWireSentinel(ErrUnsupported)
	transport.RegisterWireSentinel(ErrReplayGap)
	transport.RegisterWireSentinel(ErrUnknownApp)
}

// ServerInfo describes a control-plane endpoint.
type ServerInfo struct {
	// Proto is the protocol version the server speaks.
	Proto byte
	// Role is "middleware" (in-process deployment), "host" (mdagentd),
	// or "registry" (mdregistry).
	Role string
	// Host is the serving host id ("" for a registry center).
	Host string
	// Space is the serving smart space ("" when standalone).
	Space string
}

// MemberInfo is one host's entry in a gossip membership view.
type MemberInfo struct {
	ID          string
	Space       string
	State       string // alive | suspect | dead
	Incarnation uint64
}

// AppInfo is one application installation with its replicated-state
// metadata joined on.
type AppInfo struct {
	Name       string
	Host       string
	Space      string
	Components []string
	Running    bool
	// Snapshot, when non-nil, is the head of the app's replicated
	// snapshot record (durable/delta-chain metadata included).
	Snapshot *state.SnapshotHead
}

// HostStats is one host replicator's counters.
type HostStats struct {
	Host  string
	Stats state.Stats
}

// MigrateRequest asks the serving host to follow-me an application.
type MigrateRequest struct {
	App string
	// Host selects the source host on a multi-host (in-process) server;
	// "" means the host currently running the app.
	Host string
	To   string
	// Static selects whole-application binding (the evaluation
	// baseline); default is adaptive component binding.
	Static bool
}

// MigrateResult is the migration outcome with the paper's three-phase
// timing split.
type MigrateResult struct {
	App        string
	From       string
	To         string
	Suspend    time.Duration
	Migrate    time.Duration
	Resume     time.Duration
	BytesMoved int64
	Carried    []string
	// Delta reports a warm follow-me handoff (delta frame shipped
	// instead of the full wrap).
	Delta bool
}

// Total is the end-to-end migration time.
func (r MigrateResult) Total() time.Duration { return r.Suspend + r.Migrate + r.Resume }

// WatchEvent is one streamed event: the bus form it crossed the wire
// as, its decoded typed form, and the server-side drop count.
type WatchEvent struct {
	// Event is the bus (wire) encoding.
	Event ctxkernel.Event
	// Typed is the decoded form — one of the ctxkernel event structs,
	// or ctxkernel.GenericEvent for topics outside the catalog.
	Typed ctxkernel.TypedEvent
	// Lost counts events dropped on this watch before this one because
	// the client was not draining fast enough: ring overflow — events
	// that aged out of the server's replay ring before this watch's
	// cursor reached them (an upper bound — it includes aged-out events
	// that would not have matched the watch pattern) — plus events the
	// client-side buffer could not hold.
	Lost uint64
	// Seq is the server's monotonic event sequence number (first event
	// ever published is 1); resume a dropped stream with
	// WatchFrom(ctx, pattern, Seq+1).
	Seq uint64
}

// BundleInfo is one stored bundle in a bundle.list reply.
type BundleInfo struct {
	Name  string
	Bytes int64
}

// Wire bodies (gob-encoded inside the sealed payload).
type (
	runReq struct{ App, Host string }

	// bundleInstallReq asks the serving host to instantiate a stored
	// bundle. Host selects the target on a multi-host (in-process)
	// server; "" means the server's own host.
	bundleInstallReq struct{ App, Host string }

	watchReq struct {
		ID uint64
		// Pattern is a kernel topic pattern: exact, "prefix.*", or "*".
		Pattern string
		// Proto is the push encoding the client accepts. The server
		// refuses anything below transport.ProtoV2 (batched fast-frame
		// pushes on MsgEventV2) with ErrVersion.
		Proto byte
		// FromSeq, when non-zero, replays the stream from that sequence
		// number (inclusive) out of the server's event ring instead of
		// starting live.
		FromSeq uint64
	}

	// watchAck is the server's reply to a watch subscribe. A server
	// older than the sequenced stream replies with an empty payload,
	// which the client turns into ErrVersion.
	watchAck struct {
		// Proto is the push encoding the server will use.
		Proto byte
		// Next is the sequence number the next published event will get,
		// at subscribe time.
		Next uint64
		// Ring is the server's replay ring capacity in events.
		Ring int
	}

	unwatchReq struct{ ID uint64 }

	traceReq struct{ App string }
)
