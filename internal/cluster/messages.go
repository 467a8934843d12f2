package cluster

import (
	"crypto/sha256"
	"time"

	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// Transport message types served by cluster nodes and federated centers.
const (
	MsgPing         = "cluster.ping"           // direct SWIM probe
	MsgPingReq      = "cluster.ping-req"       // indirect probe through a relay
	MsgFedDigest    = "cluster.fed-digest"     // anti-entropy digest exchange
	MsgFedPush      = "cluster.fed-push"       // best-effort replication push
	MsgFedSnapDelta = "cluster.fed-snap-delta" // delta-only snapshot push
	MsgFedDurable   = "cluster.fed-durable"    // write-concern-met confirmation
	MsgPutSnapshot  = "cluster.snap-put"       // remote replicator put
	MsgGetSnapshot  = "cluster.snap-get"       // remote snapshot fetch
	MsgDropSnapshot = "cluster.snap-drop"      // remote graceful-stop tombstone
	MsgListSnaps    = "cluster.snap-list"      // remote snapshot-head listing
)

// MemberEndpointName returns the conventional membership endpoint name for
// a host (used by in-process deployments; cmd daemons share their engine
// endpoint instead).
func MemberEndpointName(host string) string { return "cluster@" + host }

// CenterEndpointName returns the conventional endpoint name of a smart
// space's federated registry center.
func CenterEndpointName(space string) string { return "registry@" + space }

// pingMsg is a direct probe. Probe payloads are sealed behind the
// transport version byte, and dissemination is bounded: Updates carries
// at most maxPiggyback queued member updates selected
// fewest-transmissions-first, so the payload is O(1) in cluster size.
// Full marks a full-table anti-entropy exchange (join bootstrap, Rejoin
// and the FullSyncEvery cadence): Table carries the sender's whole table
// and the ack answers in kind.
type pingMsg struct {
	From    string
	Updates []Member
	Full    bool
	Table   []Member
}

// ackMsg acknowledges a probe. The responder's own entry always leads
// Updates (O(1), and it is what lets a falsely convicted member refute
// a confirm-probe and a leaver co-sign its own certificate); the rest
// is the responder's bounded update selection, or its full table when
// the exchange is Full.
type ackMsg struct {
	OK      bool
	Updates []Member
	Full    bool
	Table   []Member
}

// pingReqMsg asks a relay to probe Target on the sender's behalf (SWIM's
// indirect probe, which distinguishes a dead target from a lossy path).
// Piggybacking follows pingMsg.
type pingReqMsg struct {
	From    string
	Target  Member
	Updates []Member
	Full    bool
	Table   []Member
}

// RecordKind classifies a replicated registry record.
type RecordKind int

// Replicated record kinds.
const (
	RecordApp RecordKind = iota + 1
	RecordResource
	RecordDevice
	RecordSnapshot // an application's latest replicated state snapshot
	RecordBundle   // a signed portable app bundle (raw, signature-checked at install)
)

// Record is one versioned, replicated registry entry. Exactly one of App,
// Res, Dev, Snap, Bdl is meaningful, selected by Kind; gob cannot carry
// interfaces without registration churn, so the union is explicit.
// (Adding a union arm is gob-additive: old decoders ignore the unknown
// field, and old centers never receive RecordBundle pushes they would
// misfile because applyToRegistry rejects unknown kinds.)
type Record struct {
	Key     string // store key, e.g. "app/hostA/smart-media-player"
	Kind    RecordKind
	Origin  string // space of the last writer (concurrent-update tiebreak)
	Version vclock.Version
	Deleted bool // tombstone: the entry was unregistered

	App  registry.AppRecord
	Res  owl.Resource
	Dev  wsdl.DeviceProfile
	Snap state.SnapshotRecord
	Bdl  registry.BundleRecord
}

// digestMsg asks a peer center for every record the sender's digest has
// not seen.
type digestMsg struct {
	From   string // sender space
	Digest map[string]vclock.Version
}

// digestReply carries the records the responder holds that the digest
// does not dominate.
type digestReply struct {
	Records []Record
}

// pushMsg carries freshly written records to a peer center.
type pushMsg struct {
	From    string
	Records []Record
}

// durableMsg tells peers a snapshot write met its concern: a peer whose
// stored record is exactly Version stamps its copy durable and refreshes
// its durable stash. Best-effort and FIFO-ordered behind the data push
// it confirms; without it, a peer's stash would only ever advance via
// anti-entropy deliveries of already-stamped records, and failover's
// durable-preference could roll back to an arbitrarily old capture.
type durableMsg struct {
	From    string
	Key     string
	Version vclock.Version
}

// snapDeltaAck acknowledges a delta push. Applied reports that the
// receiver now holds the pushed write: it chained the delta, or already
// held that version or a newer one. A false ack tells a durable pusher
// to fall back to a full-record push (the receiver's base diverged, so
// the delta alone cannot make the write durable there).
type snapDeltaAck struct {
	Applied bool
}

// snapDeltaMsg carries just the newest delta of a snapshot record to a
// peer center — kilobytes where a full record push would be megabytes. A
// peer applies it only when its copy's newest state digest matches
// BaseDigest and Version strictly supersedes its own; otherwise
// anti-entropy repairs with the full record.
type snapDeltaMsg struct {
	From       string // writer space
	Key        string
	Version    vclock.Version
	Seq        uint64
	Host       string
	Space      string
	At         time.Time
	BaseDigest [sha256.Size]byte
	NewDigest  [sha256.Size]byte
	Delta      []byte // EncodeDelta frame
}

// Snapshot wire protocol bodies (Center.Serve / SnapshotClient): remote
// daemons join the state pipeline over the same endpoints that serve the
// registry protocol.
type (
	// getSnapshotReq fetches an app's freshest snapshot. When the
	// requester already holds a record of the app (Have set), the Have*
	// fields describe it, and a center whose copy extends the same base
	// replies with just the missing delta tail instead of the full
	// record. Zero Have preserves the PR 5 behaviour for old clients.
	getSnapshotReq struct {
		App         string
		Have        bool
		HaveBaseSeq uint64
		HaveSeq     uint64
		HaveDigest  [sha256.Size]byte
	}

	getSnapshotReply struct {
		Rec   state.SnapshotRecord
		Found bool
		// DeltaOnly marks Rec as a tail: it carries the head's metadata
		// and only the deltas past the requester's HaveSeq, no base
		// frame. The requester grafts the tail onto its cached record.
		DeltaOnly bool
	}

	dropSnapshotReq struct{ App, Host string }

	listSnapsReply struct {
		Heads []state.SnapshotHead
	}
)
