package ctxkernel

import (
	"strconv"
	"time"
)

// Topics published by the application lifecycle (internal/core) and the
// agent layer; canonical strings live here, next to the cluster topics,
// so every layer shares one catalog.
const (
	// TopicAppStarted fires when an application is run on a host
	// (attrs: app, host).
	TopicAppStarted = "app.started"
	// TopicAppStopped fires when an application is gracefully stopped
	// (attrs: app, host).
	TopicAppStopped = "app.stopped"
	// TopicAppMigrated fires after a successful agent- or control-plane-
	// driven migration (attrs: app, dest, mode, reason, suspend_ms,
	// migrate_ms, resume_ms, bytes).
	TopicAppMigrated = "app.migrated"
	// TopicAppMigrateFailed fires when a migration attempt failed
	// (attrs: app, dest, reason, error).
	TopicAppMigrateFailed = "app.migrate-failed"
	// TopicClusterMember fires on a gossip membership transition
	// (attrs: host, space, state, incarnation).
	TopicClusterMember = "cluster.member"
)

// Topic enumerates the exported event kinds of the control plane: every
// kernel topic with a typed struct form. The string topics above remain
// the internal bus (and wire) encoding; the enum and the structs are the
// public contract clients program against.
type Topic uint8

// Exported event kinds.
const (
	EvUnknown Topic = iota
	EvUserEntered
	EvUserLeft
	EvUserLocation
	EvNetworkRTT
	EvAppStarted
	EvAppStopped
	EvAppMigrated
	EvAppMigrateFailed
	EvClusterMember
	EvClusterHostDead
	EvClusterRehomed
	EvClusterRehomeFailed
	EvClusterSuperseded
	EvStateReplicated
	EvStateRestored
	EvClusterDurable
	EvClusterDegraded
)

// topicStrings maps each exported kind to its bus encoding.
var topicStrings = map[Topic]string{
	EvUserEntered:         TopicUserEntered,
	EvUserLeft:            TopicUserLeft,
	EvUserLocation:        TopicUserLocation,
	EvNetworkRTT:          TopicNetworkRTT,
	EvAppStarted:          TopicAppStarted,
	EvAppStopped:          TopicAppStopped,
	EvAppMigrated:         TopicAppMigrated,
	EvAppMigrateFailed:    TopicAppMigrateFailed,
	EvClusterMember:       TopicClusterMember,
	EvClusterHostDead:     TopicClusterHostDead,
	EvClusterRehomed:      TopicClusterRehomed,
	EvClusterRehomeFailed: TopicClusterRehomeFailed,
	EvClusterSuperseded:   TopicClusterSuperseded,
	EvStateReplicated:     TopicStateReplicated,
	EvStateRestored:       TopicStateRestored,
	EvClusterDurable:      TopicClusterDurable,
	EvClusterDegraded:     TopicClusterDegraded,
}

// String returns the kind's bus topic ("" for EvUnknown).
func (t Topic) String() string { return topicStrings[t] }

// ParseTopic maps a bus topic string back to its exported kind.
func ParseTopic(s string) (Topic, bool) {
	for t, str := range topicStrings {
		if str == s {
			return t, true
		}
	}
	return EvUnknown, false
}

// TypedEvent is one exported event in struct form. Bus() encodes it back
// to the kernel's string-topic form — the bus and wire encoding — and
// FromBus decodes; the two round-trip for every exported kind.
type TypedEvent interface {
	Kind() Topic
	Bus() Event
}

// UserEnteredEvent reports a user appearing in a room.
type UserEnteredEvent struct {
	User, Badge, Room string
	// FromRoom is the previous room ("" when first seen).
	FromRoom string
	At       time.Time
}

func (e UserEnteredEvent) Kind() Topic { return EvUserEntered }
func (e UserEnteredEvent) Bus() Event {
	return Event{Topic: TopicUserEntered, At: e.At, Source: "typed", Attrs: map[string]string{
		AttrUser: e.User, AttrBadge: e.Badge, AttrRoom: e.Room, AttrFrom: e.FromRoom,
	}}
}

// UserLeftEvent reports a user leaving a room.
type UserLeftEvent struct {
	User, Badge, Room string
	At                time.Time
}

func (e UserLeftEvent) Kind() Topic { return EvUserLeft }
func (e UserLeftEvent) Bus() Event {
	return Event{Topic: TopicUserLeft, At: e.At, Source: "typed", Attrs: map[string]string{
		AttrUser: e.User, AttrBadge: e.Badge, AttrRoom: e.Room,
	}}
}

// UserLocationEvent is the current (user, room) fact.
type UserLocationEvent struct {
	User, Badge, Room string
	At                time.Time
}

func (e UserLocationEvent) Kind() Topic { return EvUserLocation }
func (e UserLocationEvent) Bus() Event {
	return Event{Topic: TopicUserLocation, At: e.At, Source: "typed", Attrs: map[string]string{
		AttrUser: e.User, AttrBadge: e.Badge, AttrRoom: e.Room,
	}}
}

// NetworkRTTEvent is an observed host-to-host response time.
type NetworkRTTEvent struct {
	From, To string
	RTTMs    int64
	At       time.Time
}

func (e NetworkRTTEvent) Kind() Topic { return EvNetworkRTT }
func (e NetworkRTTEvent) Bus() Event {
	return Event{Topic: TopicNetworkRTT, At: e.At, Source: "typed", Attrs: map[string]string{
		AttrFrom: e.From, AttrTo: e.To, AttrRTTMs: strconv.FormatInt(e.RTTMs, 10),
	}}
}

// AppStartedEvent reports an application run on a host.
type AppStartedEvent struct {
	App, Host string
	At        time.Time
}

func (e AppStartedEvent) Kind() Topic { return EvAppStarted }
func (e AppStartedEvent) Bus() Event {
	return Event{Topic: TopicAppStarted, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "host": e.Host,
	}}
}

// AppStoppedEvent reports an application gracefully stopped on a host.
type AppStoppedEvent struct {
	App, Host string
	At        time.Time
}

func (e AppStoppedEvent) Kind() Topic { return EvAppStopped }
func (e AppStoppedEvent) Bus() Event {
	return Event{Topic: TopicAppStopped, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "host": e.Host,
	}}
}

// AppMigratedEvent reports a completed migration with its three-phase
// timing split.
type AppMigratedEvent struct {
	App, Dest, Mode, Reason        string
	SuspendMs, MigrateMs, ResumeMs int64
	Bytes                          int64
	At                             time.Time
}

func (e AppMigratedEvent) Kind() Topic { return EvAppMigrated }
func (e AppMigratedEvent) Bus() Event {
	return Event{Topic: TopicAppMigrated, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "dest": e.Dest, "mode": e.Mode, "reason": e.Reason,
		"suspend_ms": strconv.FormatInt(e.SuspendMs, 10),
		"migrate_ms": strconv.FormatInt(e.MigrateMs, 10),
		"resume_ms":  strconv.FormatInt(e.ResumeMs, 10),
		"bytes":      strconv.FormatInt(e.Bytes, 10),
	}}
}

// AppMigrateFailedEvent reports a migration attempt that did not land.
type AppMigrateFailedEvent struct {
	App, Dest, Reason, Error string
	At                       time.Time
}

func (e AppMigrateFailedEvent) Kind() Topic { return EvAppMigrateFailed }
func (e AppMigrateFailedEvent) Bus() Event {
	return Event{Topic: TopicAppMigrateFailed, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "dest": e.Dest, "reason": e.Reason, "error": e.Error,
	}}
}

// MemberEvent is one gossip membership transition.
type MemberEvent struct {
	Host, Space, State string
	Incarnation        uint64
	At                 time.Time
}

func (e MemberEvent) Kind() Topic { return EvClusterMember }
func (e MemberEvent) Bus() Event {
	return Event{Topic: TopicClusterMember, At: e.At, Source: "typed", Attrs: map[string]string{
		"host": e.Host, "space": e.Space, "state": e.State,
		"incarnation": strconv.FormatUint(e.Incarnation, 10),
	}}
}

// HostDeadEvent reports a quorum death conviction starting failover.
type HostDeadEvent struct {
	Host, Reporter string
	At             time.Time
}

func (e HostDeadEvent) Kind() Topic { return EvClusterHostDead }
func (e HostDeadEvent) Bus() Event {
	return Event{Topic: TopicClusterHostDead, At: e.At, Source: "typed", Attrs: map[string]string{
		"host": e.Host, "reporter": e.Reporter,
	}}
}

// RehomedEvent reports one application relaunched on a survivor.
type RehomedEvent struct {
	App, From, To, Space string
	// Restored reports the relaunch resumed from a replicated snapshot
	// rather than a blank skeleton.
	Restored bool
	At       time.Time
}

func (e RehomedEvent) Kind() Topic { return EvClusterRehomed }
func (e RehomedEvent) Bus() Event {
	return Event{Topic: TopicClusterRehomed, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "from": e.From, "to": e.To, "space": e.Space,
		"restored": strconv.FormatBool(e.Restored),
	}}
}

// RehomeFailedEvent reports failover that could not re-home a dead
// host's applications.
type RehomeFailedEvent struct {
	Host, Error string
	At          time.Time
}

func (e RehomeFailedEvent) Kind() Topic { return EvClusterRehomeFailed }
func (e RehomeFailedEvent) Bus() Event {
	return Event{Topic: TopicClusterRehomeFailed, At: e.At, Source: "typed", Attrs: map[string]string{
		"host": e.Host, "error": e.Error,
	}}
}

// SupersededEvent reports a revived host stopping its stale copy of an
// application that was re-homed during its conviction.
type SupersededEvent struct {
	App, Host, RunningOn string
	At                   time.Time
}

func (e SupersededEvent) Kind() Topic { return EvClusterSuperseded }
func (e SupersededEvent) Bus() Event {
	return Event{Topic: TopicClusterSuperseded, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "host": e.Host, "running-on": e.RunningOn,
	}}
}

// StateReplicatedEvent reports one snapshot publish by a host's
// replicator.
type StateReplicatedEvent struct {
	App, Host string
	// FrameKind is "full" or "delta".
	FrameKind string
	Seq       uint64
	Bytes     int
	Chain     int
	At        time.Time
}

func (e StateReplicatedEvent) Kind() Topic { return EvStateReplicated }
func (e StateReplicatedEvent) Bus() Event {
	return Event{Topic: TopicStateReplicated, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "host": e.Host, "kind": e.FrameKind,
		"seq":   strconv.FormatUint(e.Seq, 10),
		"bytes": strconv.Itoa(e.Bytes),
		"chain": strconv.Itoa(e.Chain),
	}}
}

// StateRestoredEvent reports failover restoring a re-homed application
// from a replicated snapshot.
type StateRestoredEvent struct {
	App, To string
	Seq     uint64
	At      time.Time
}

func (e StateRestoredEvent) Kind() Topic { return EvStateRestored }
func (e StateRestoredEvent) Bus() Event {
	return Event{Topic: TopicStateRestored, At: e.At, Source: "typed", Attrs: map[string]string{
		"app": e.App, "to": e.To, "seq": strconv.FormatUint(e.Seq, 10),
	}}
}

// FederationWriteEvent is the outcome of one synchronous-concern
// federation write: durable (the concern was met) or degraded (too few
// peers reachable, or too few acks before the window closed).
type FederationWriteEvent struct {
	Space, Key, Concern string
	Acked, Required     int
	// Durable selects the bus topic: cluster.durable when true,
	// cluster.degraded when false.
	Durable bool
	// Degraded reports the write skipped the ack wait entirely because
	// the membership view said the concern was unmeetable.
	Degraded bool
	At       time.Time
}

func (e FederationWriteEvent) Kind() Topic {
	if e.Durable {
		return EvClusterDurable
	}
	return EvClusterDegraded
}

func (e FederationWriteEvent) Bus() Event {
	return Event{Topic: e.Kind().String(), At: e.At, Source: "typed", Attrs: map[string]string{
		"space": e.Space, "key": e.Key, "concern": e.Concern,
		"acked":    strconv.Itoa(e.Acked),
		"required": strconv.Itoa(e.Required),
		"degraded": strconv.FormatBool(e.Degraded),
	}}
}

// GenericEvent wraps a bus event with no typed form (user-defined
// topics); Raw is the event as published.
type GenericEvent struct {
	Raw Event
}

func (e GenericEvent) Kind() Topic { return EvUnknown }
func (e GenericEvent) Bus() Event  { return e.Raw }

// attr parsing helpers: absent or malformed attributes decode to zero
// values — events are observability data, not invariants.
func atoiAttr(ev Event, key string) int {
	n, _ := strconv.Atoi(ev.Attr(key))
	return n
}

func int64Attr(ev Event, key string) int64 {
	n, _ := strconv.ParseInt(ev.Attr(key), 10, 64)
	return n
}

func uint64Attr(ev Event, key string) uint64 {
	n, _ := strconv.ParseUint(ev.Attr(key), 10, 64)
	return n
}

func boolAttr(ev Event, key string) bool {
	b, _ := strconv.ParseBool(ev.Attr(key))
	return b
}

// FromBus decodes a bus event into its typed form. Topics outside the
// exported catalog come back as GenericEvent, so a Watch stream never
// drops an event for being untyped.
func FromBus(ev Event) TypedEvent {
	kind, ok := ParseTopic(ev.Topic)
	if !ok {
		return GenericEvent{Raw: ev}
	}
	switch kind {
	case EvUserEntered:
		return UserEnteredEvent{
			User: ev.Attr(AttrUser), Badge: ev.Attr(AttrBadge),
			Room: ev.Attr(AttrRoom), FromRoom: ev.Attr(AttrFrom), At: ev.At,
		}
	case EvUserLeft:
		return UserLeftEvent{
			User: ev.Attr(AttrUser), Badge: ev.Attr(AttrBadge),
			Room: ev.Attr(AttrRoom), At: ev.At,
		}
	case EvUserLocation:
		return UserLocationEvent{
			User: ev.Attr(AttrUser), Badge: ev.Attr(AttrBadge),
			Room: ev.Attr(AttrRoom), At: ev.At,
		}
	case EvNetworkRTT:
		return NetworkRTTEvent{
			From: ev.Attr(AttrFrom), To: ev.Attr(AttrTo),
			RTTMs: int64Attr(ev, AttrRTTMs), At: ev.At,
		}
	case EvAppStarted:
		return AppStartedEvent{App: ev.Attr("app"), Host: ev.Attr("host"), At: ev.At}
	case EvAppStopped:
		return AppStoppedEvent{App: ev.Attr("app"), Host: ev.Attr("host"), At: ev.At}
	case EvAppMigrated:
		return AppMigratedEvent{
			App: ev.Attr("app"), Dest: ev.Attr("dest"),
			Mode: ev.Attr("mode"), Reason: ev.Attr("reason"),
			SuspendMs: int64Attr(ev, "suspend_ms"),
			MigrateMs: int64Attr(ev, "migrate_ms"),
			ResumeMs:  int64Attr(ev, "resume_ms"),
			Bytes:     int64Attr(ev, "bytes"), At: ev.At,
		}
	case EvAppMigrateFailed:
		return AppMigrateFailedEvent{
			App: ev.Attr("app"), Dest: ev.Attr("dest"),
			Reason: ev.Attr("reason"), Error: ev.Attr("error"), At: ev.At,
		}
	case EvClusterMember:
		return MemberEvent{
			Host: ev.Attr("host"), Space: ev.Attr("space"), State: ev.Attr("state"),
			Incarnation: uint64Attr(ev, "incarnation"), At: ev.At,
		}
	case EvClusterHostDead:
		return HostDeadEvent{Host: ev.Attr("host"), Reporter: ev.Attr("reporter"), At: ev.At}
	case EvClusterRehomed:
		return RehomedEvent{
			App: ev.Attr("app"), From: ev.Attr("from"), To: ev.Attr("to"),
			Space: ev.Attr("space"), Restored: boolAttr(ev, "restored"), At: ev.At,
		}
	case EvClusterRehomeFailed:
		return RehomeFailedEvent{Host: ev.Attr("host"), Error: ev.Attr("error"), At: ev.At}
	case EvClusterSuperseded:
		return SupersededEvent{
			App: ev.Attr("app"), Host: ev.Attr("host"),
			RunningOn: ev.Attr("running-on"), At: ev.At,
		}
	case EvStateReplicated:
		return StateReplicatedEvent{
			App: ev.Attr("app"), Host: ev.Attr("host"), FrameKind: ev.Attr("kind"),
			Seq: uint64Attr(ev, "seq"), Bytes: atoiAttr(ev, "bytes"),
			Chain: atoiAttr(ev, "chain"), At: ev.At,
		}
	case EvStateRestored:
		return StateRestoredEvent{
			App: ev.Attr("app"), To: ev.Attr("to"), Seq: uint64Attr(ev, "seq"), At: ev.At,
		}
	case EvClusterDurable, EvClusterDegraded:
		return FederationWriteEvent{
			Space: ev.Attr("space"), Key: ev.Attr("key"), Concern: ev.Attr("concern"),
			Acked: atoiAttr(ev, "acked"), Required: atoiAttr(ev, "required"),
			Durable: kind == EvClusterDurable, Degraded: boolAttr(ev, "degraded"), At: ev.At,
		}
	}
	return GenericEvent{Raw: ev}
}

// PublishTyped encodes a typed event onto the bus with the given source.
func (k *Kernel) PublishTyped(source string, e TypedEvent) {
	ev := e.Bus()
	ev.Source = source
	k.Publish(ev)
}
