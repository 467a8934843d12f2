package state

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"mdagent/internal/app"
)

// SnapshotRecord is one application's replicated snapshot as stored and
// federated by the registry centers: a full base frame plus a bounded
// chain of delta frames on top of it, with the provenance failover needs
// to pick the freshest copy. The record is always restorable alone —
// Snapshot() reassembles base and chain — and a center refuses a delta
// onto a long or heavy chain, so the publisher sends a fresh base
// instead and chains stay short.
type SnapshotRecord struct {
	App   string
	Host  string // host that captured the newest state
	Space string // smart space of that host
	// Seq is a capture sequence assigned by the registry center the
	// record was written to (monotone per app at each center); it breaks
	// ties between concurrently replicated snapshots deterministically.
	// Seq - BaseSeq == len(Deltas).
	Seq uint64
	At  time.Time // newest capture time on the capturing host's clock

	// Frame is the EncodeSnapshot base frame (full wrap, checksummed).
	Frame []byte
	// BaseSeq is the capture sequence Frame corresponds to.
	BaseSeq uint64
	// Deltas are EncodeDelta frames applying in order on top of Frame;
	// each is digest-chained to the state before it.
	Deltas [][]byte
	// StateDigest is the canonical WrapDigest of the newest state (Frame
	// with Deltas applied) — the base the next delta put must match.
	StateDigest [sha256.Size]byte

	// Durable marks this copy as known to have met a synchronous write
	// concern: the writing center collected the required peer acks,
	// stamped its stored record, and broadcast a best-effort confirm so
	// peers holding the same version stamp theirs too (a push-time copy
	// carries false — acks had not returned yet). Failover uses it to
	// prefer a consensus-safe record over a fresher copy that only ever
	// existed on one center.
	Durable bool
}

// Snapshot reassembles the record's newest state: decode the base frame,
// then apply each delta in order (every step digest-checked, each
// component hashed once over the whole chain). Any failure — torn frame,
// checksum, base mismatch from a reordered chain — surfaces as an error
// so callers degrade to a skeleton relaunch rather than restoring
// garbage.
func (r SnapshotRecord) Snapshot() (app.TaggedSnapshot, error) {
	ts, _, err := r.reassemble()
	return ts, err
}

// SnapshotDigest is Snapshot plus the reassembled state's WrapDigest,
// read from the component digests the chain already carries: compare it
// with StateDigest to check a record end to end without hashing the
// state a second time.
func (r SnapshotRecord) SnapshotDigest() (app.TaggedSnapshot, [sha256.Size]byte, error) {
	ts, dw, err := r.reassemble()
	if err != nil {
		return app.TaggedSnapshot{}, [sha256.Size]byte{}, err
	}
	return ts, dw.Digest(), nil
}

func (r SnapshotRecord) reassemble() (app.TaggedSnapshot, *DigestedWrap, error) {
	ts, err := DecodeSnapshot(r.Frame)
	if err != nil {
		return app.TaggedSnapshot{}, nil, err
	}
	dw := NewDigestedWrap(ts.Wrap)
	for i, raw := range r.Deltas {
		d, err := DecodeDelta(raw)
		if err == nil {
			dw, err = dw.Apply(d)
		}
		if err != nil {
			return app.TaggedSnapshot{}, nil, fmt.Errorf("state: delta %d/%d: %w", i+1, len(r.Deltas), err)
		}
	}
	ts.Wrap = dw.Wrap
	if len(r.Deltas) > 0 {
		ts.At = r.At
	}
	return ts, dw, nil
}

// Verify checks every frame's header and checksum without decoding —
// the cheap pre-restore validation failover runs before committing to a
// multi-megabyte reassembly.
func (r SnapshotRecord) Verify() error {
	if err := VerifySnapshot(r.Frame); err != nil {
		return err
	}
	for i, raw := range r.Deltas {
		if err := VerifyDelta(raw); err != nil {
			return fmt.Errorf("state: delta %d/%d: %w", i+1, len(r.Deltas), err)
		}
	}
	return nil
}

// FrameBytes reports the record's total serialized state size (base
// frame plus delta chain).
func (r SnapshotRecord) FrameBytes() int {
	n := len(r.Frame)
	for _, d := range r.Deltas {
		n += len(d)
	}
	return n
}

// SnapshotHead is a snapshot record's metadata without its frames — what
// the control plane lists when an operator asks for snapshot heads, and
// what crosses the wire where a full record would be megabytes.
type SnapshotHead struct {
	App   string
	Host  string
	Space string
	Seq   uint64
	// BaseSeq is the capture sequence of the record's full base frame;
	// Seq - BaseSeq deltas are chained on top.
	BaseSeq uint64
	// Chain is the number of delta frames on the record.
	Chain int
	// Bytes is the record's total serialized state size (base + chain).
	Bytes int
	// Durable marks the record as known to have met a synchronous write
	// concern (see SnapshotRecord.Durable).
	Durable bool
	At      time.Time
}

// Head strips a record to its listable metadata.
func (r SnapshotRecord) Head() SnapshotHead {
	return SnapshotHead{
		App: r.App, Host: r.Host, Space: r.Space,
		Seq: r.Seq, BaseSeq: r.BaseSeq, Chain: len(r.Deltas),
		Bytes: r.FrameBytes(), Durable: r.Durable, At: r.At,
	}
}

// SnapshotPut is one publish from a host's replicator: either a full
// base frame (Delta false) or a delta frame against the publisher's
// last acked state (Delta true). Digests let the publisher and the
// center agree on the chain without either re-serializing anything.
type SnapshotPut struct {
	App   string
	Host  string
	Space string
	At    time.Time
	// Delta marks Frame as an EncodeDelta frame; otherwise it is an
	// EncodeSnapshot full frame.
	Delta bool
	Frame []byte
	// BaseDigest (delta puts only) is the canonical digest of the state
	// the delta applies to — the publisher's view of the center's newest
	// state. A center holding anything else refuses with ErrNeedFull.
	BaseDigest [sha256.Size]byte
	// NewDigest is the canonical digest of the state after this put.
	NewDigest [sha256.Size]byte
	// Concern requests a write durability level for this put ("async",
	// "one", "quorum"); empty defers to the publisher's configured
	// default. Remote publishers (cluster.SnapshotClient) carry it over
	// the wire as the put's write-concern header; a center refuses an
	// unknown value outright.
	Concern string
}

// SnapshotStamp is the center's acknowledgement of a put: the assigned
// capture sequence and the stored record's chain shape. Deliberately
// light — the reply to a remote put must not carry the multi-megabyte
// record back over the wire.
type SnapshotStamp struct {
	Seq     uint64
	BaseSeq uint64
	Chain   int // deltas on the stored record after this put
}

// Publisher is where a Replicator writes snapshot puts —
// *cluster.Center satisfies it in-process and cluster.SnapshotClient
// over the wire: versioning each record with a vclock.Version,
// persisting it through the center's store, and replicating it to every
// peer space over the federation's push and anti-entropy channels.
type Publisher interface {
	// PutSnapshot applies one put to the app's stored record, returning
	// the stamp. A delta put whose BaseDigest does not match the stored
	// record's newest state, or that the publisher will not chain (the
	// record's chain is full), fails with ErrNeedFull (wrapped), telling
	// the replicator to re-publish a full frame.
	PutSnapshot(ctx context.Context, put SnapshotPut) (SnapshotStamp, error)
	// DropSnapshot tombstones an app's snapshot federation-wide — the
	// graceful-stop path, so failover never resurrects a stopped app.
	DropSnapshot(ctx context.Context, appName, host string) error
}
