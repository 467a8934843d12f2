package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"

	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// Fast-frame encoding of the snapshot put, the only encoding
// MsgPutSnapshot has. A put body (transport.OpSnapPut) is
//
//	string app, string host, string space, time at, bool delta,
//	bytes frame, 32 raw base-digest bytes, 32 raw new-digest bytes,
//	string concern
//
// and a put outcome (reply body, transport.OpSnapPutReply) is
//
//	byte flags (bit0 need-full, bit1 not-durable),
//	uvarint seq, uvarint base-seq, uvarint chain
//
// Need-full and not-durable ride in-band because the remote replicator
// must tell them from a real failure; a hard failure is an error reply.
//
// The snapshot fetch (MsgGetSnapshot) is a fast frame too, its only
// encoding. A request body (transport.OpSnapGet) is
//
//	string app, bool have, uvarint have-base-seq, uvarint have-seq,
//	32 raw have-digest bytes
//
// and a reply body (transport.OpSnapGetReply) is
//
//	bool found, bool delta-only, string app, string host, string space,
//	uvarint seq, time at, uvarint base-seq, 32 raw state-digest bytes,
//	bool durable, bytes frame, uvarint n, n × bytes delta
//
// The client's record aliases the reply it owns: a restore copies the
// state once, into the reply, and decodes nothing but the head.

const (
	snapFlagNeedFull   byte = 1 << 0
	snapFlagNotDurable byte = 1 << 1
)

// appendSnapPut appends one put body (no frame header).
func appendSnapPut(b []byte, put state.SnapshotPut) []byte {
	b = transport.AppendString(b, put.App)
	b = transport.AppendString(b, put.Host)
	b = transport.AppendString(b, put.Space)
	b = transport.AppendTime(b, put.At)
	b = transport.AppendBool(b, put.Delta)
	b = transport.AppendBytes(b, put.Frame)
	b = append(b, put.BaseDigest[:]...)
	b = append(b, put.NewDigest[:]...)
	b = transport.AppendString(b, put.Concern)
	return b
}

// readSnapPut decodes one put body in appendSnapPut's layout. Frame is
// copied out of the wire buffer: the center retains puts past the
// handler's life.
func readSnapPut(r *transport.FastReader) state.SnapshotPut {
	var put state.SnapshotPut
	put.App = r.String()
	put.Host = r.String()
	put.Space = r.String()
	put.At = r.Time()
	put.Delta = r.Bool()
	put.Frame = append([]byte(nil), r.Bytes()...)
	copy(put.BaseDigest[:], r.Fixed(sha256.Size))
	copy(put.NewDigest[:], r.Fixed(sha256.Size))
	put.Concern = r.String()
	return put
}

// snapOutcome is one put's result as the reply frame carries it.
type snapOutcome struct {
	Stamp      state.SnapshotStamp
	NeedFull   bool
	NotDurable bool
}

func appendSnapOutcome(b []byte, o snapOutcome) []byte {
	var flags byte
	if o.NeedFull {
		flags |= snapFlagNeedFull
	}
	if o.NotDurable {
		flags |= snapFlagNotDurable
	}
	b = append(b, flags)
	b = transport.AppendUint(b, o.Stamp.Seq)
	b = transport.AppendUint(b, o.Stamp.BaseSeq)
	return transport.AppendUint(b, uint64(o.Stamp.Chain))
}

func readSnapOutcome(r *transport.FastReader) snapOutcome {
	var o snapOutcome
	flags := byte(0)
	if f := r.Fixed(1); len(f) == 1 {
		flags = f[0]
	}
	o.NeedFull = flags&snapFlagNeedFull != 0
	o.NotDurable = flags&snapFlagNotDurable != 0
	o.Stamp.Seq = r.Uint()
	o.Stamp.BaseSeq = r.Uint()
	o.Stamp.Chain = int(r.Uint())
	return o
}

// encodeSnapPut seals one put as an OpSnapPut frame.
func encodeSnapPut(put state.SnapshotPut) []byte {
	b := append(make([]byte, 0, 130+len(put.Frame)), transport.ProtoV2, transport.OpSnapPut)
	return appendSnapPut(b, put)
}

// encodeSnapOutcome seals one put outcome as an OpSnapPutReply frame.
func encodeSnapOutcome(o snapOutcome) []byte {
	return appendSnapOutcome([]byte{transport.ProtoV2, transport.OpSnapPutReply}, o)
}

// decodeSnapPut parses an OpSnapPut frame.
func decodeSnapPut(payload []byte) (state.SnapshotPut, error) {
	r, err := transport.OpenFastOp(payload, transport.OpSnapPut, MsgPutSnapshot)
	if err != nil {
		return state.SnapshotPut{}, err
	}
	put := readSnapPut(r)
	return put, r.Err()
}

// decodeSnapOutcomeReply parses an OpSnapPutReply frame.
func decodeSnapOutcomeReply(payload []byte) (snapOutcome, error) {
	r, err := transport.OpenFastOp(payload, transport.OpSnapPutReply, MsgPutSnapshot)
	if err != nil {
		return snapOutcome{}, err
	}
	o := readSnapOutcome(r)
	return o, r.Err()
}

// putSnapshotFast serves MsgPutSnapshot on the center: the expected
// signals (need-full, not-durable) ride in-band in the reply frame, hard
// failures become error replies. That includes a malformed write-concern
// header: the put was refused before anything was stored or enqueued, so
// the error reply cannot poison the FIFO push workers.
func (c *Center) putSnapshotFast(payload []byte) ([]byte, error) {
	put, err := decodeSnapPut(payload)
	if err != nil {
		return nil, err
	}
	stamp, err := c.PutSnapshot(context.Background(), put)
	o := snapOutcome{Stamp: stamp}
	switch {
	case err == nil:
	case errors.Is(err, state.ErrNeedFull):
		o = snapOutcome{NeedFull: true}
	case errors.Is(err, ErrNotDurable):
		o.NotDurable = true
	default:
		return nil, err
	}
	return encodeSnapOutcome(o), nil
}

// err maps a decoded outcome back to the Publisher error contract,
// client side.
func (o snapOutcome) err(app string) error {
	switch {
	case o.NeedFull:
		return state.ErrNeedFull
	case o.NotDurable:
		return fmt.Errorf("cluster: remote put %s: %w", app, ErrNotDurable)
	}
	return nil
}

// snapGetReq fetches an app's freshest snapshot. When the requester
// already holds a record of the app (Have set), the Have* fields
// describe it, and a center whose copy extends the same base replies
// with just the missing delta tail instead of the full record.
type snapGetReq struct {
	App         string
	Have        bool
	HaveBaseSeq uint64
	HaveSeq     uint64
	HaveDigest  [sha256.Size]byte
}

// snapGetReply answers a snapGetReq.
type snapGetReply struct {
	Rec   state.SnapshotRecord
	Found bool
	// DeltaOnly marks Rec as a tail: it carries the head's metadata and
	// only the deltas past the requester's HaveSeq, no base frame. The
	// requester grafts the tail onto its cached record.
	DeltaOnly bool
}

// encodeSnapGet seals one fetch as an OpSnapGet frame.
func encodeSnapGet(req snapGetReq) []byte {
	b := append(make([]byte, 0, 2+10+len(req.App)+1+20+sha256.Size), transport.ProtoV2, transport.OpSnapGet)
	b = transport.AppendString(b, req.App)
	b = transport.AppendBool(b, req.Have)
	b = transport.AppendUint(b, req.HaveBaseSeq)
	b = transport.AppendUint(b, req.HaveSeq)
	return append(b, req.HaveDigest[:]...)
}

// decodeSnapGet parses an OpSnapGet frame.
func decodeSnapGet(payload []byte) (snapGetReq, error) {
	r, err := transport.OpenFastOp(payload, transport.OpSnapGet, MsgGetSnapshot)
	if err != nil {
		return snapGetReq{}, err
	}
	var req snapGetReq
	req.App = r.String()
	req.Have = r.Bool()
	req.HaveBaseSeq = r.Uint()
	req.HaveSeq = r.Uint()
	copy(req.HaveDigest[:], r.Fixed(sha256.Size))
	return req, r.Err()
}

// encodeSnapGetReply seals one fetch answer as an OpSnapGetReply frame,
// in a buffer sized for the record's frames: the one copy of the state a
// restore makes.
func encodeSnapGetReply(reply snapGetReply) []byte {
	rec := reply.Rec
	n := 2 + 2 + 3*10 + len(rec.App) + len(rec.Host) + len(rec.Space) + 3*10 + sha256.Size + 1 + 10 + 10
	for _, d := range rec.Deltas {
		n += 10 + len(d)
	}
	b := append(make([]byte, 0, n+len(rec.Frame)), transport.ProtoV2, transport.OpSnapGetReply)
	b = transport.AppendBool(b, reply.Found)
	b = transport.AppendBool(b, reply.DeltaOnly)
	b = transport.AppendString(b, rec.App)
	b = transport.AppendString(b, rec.Host)
	b = transport.AppendString(b, rec.Space)
	b = transport.AppendUint(b, rec.Seq)
	b = transport.AppendTime(b, rec.At)
	b = transport.AppendUint(b, rec.BaseSeq)
	b = append(b, rec.StateDigest[:]...)
	b = transport.AppendBool(b, rec.Durable)
	b = transport.AppendBytes(b, rec.Frame)
	b = transport.AppendUint(b, uint64(len(rec.Deltas)))
	for _, d := range rec.Deltas {
		b = transport.AppendBytes(b, d)
	}
	return b
}

// decodeSnapGetReply parses an OpSnapGetReply frame. The record's frame
// and deltas alias payload, which the caller must own and not write.
func decodeSnapGetReply(payload []byte) (snapGetReply, error) {
	r, err := transport.OpenFastOp(payload, transport.OpSnapGetReply, MsgGetSnapshot)
	if err != nil {
		return snapGetReply{}, err
	}
	var reply snapGetReply
	reply.Found = r.Bool()
	reply.DeltaOnly = r.Bool()
	rec := &reply.Rec
	rec.App = r.String()
	rec.Host = r.String()
	rec.Space = r.String()
	rec.Seq = r.Uint()
	rec.At = r.Time()
	rec.BaseSeq = r.Uint()
	copy(rec.StateDigest[:], r.Fixed(sha256.Size))
	rec.Durable = r.Bool()
	rec.Frame = aliasBytes(r)
	n := r.Uint()
	if n > 0 && r.Err() == nil {
		// Every delta takes a byte at least (its length), so the bytes
		// present bound the allocation, whatever n claims.
		rec.Deltas = make([][]byte, 0, min(n, uint64(len(payload))))
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		rec.Deltas = append(rec.Deltas, aliasBytes(r))
	}
	if err := r.Err(); err != nil {
		return snapGetReply{}, err
	}
	return reply, nil
}

// aliasBytes reads a length-prefixed field as a window onto the frame,
// capped at its own length so an append reallocates instead of growing
// into the next field. An empty field reads as nil.
func aliasBytes(r *transport.FastReader) []byte {
	b := r.Bytes()
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// getSnapshotFast serves MsgGetSnapshot on the center: the freshest
// record, or the tail past what the requester describes.
func (c *Center) getSnapshotFast(payload []byte) ([]byte, error) {
	req, err := decodeSnapGet(payload)
	if err != nil {
		return nil, err
	}
	var reply snapGetReply
	if req.Have {
		reply.Rec, reply.Found, reply.DeltaOnly = c.SnapshotSince(req.App, req.HaveBaseSeq, req.HaveSeq, req.HaveDigest)
	} else {
		reply.Rec, reply.Found = c.LatestSnapshot(req.App)
	}
	return encodeSnapGetReply(reply), nil
}
