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
	return transport.SealFast(transport.OpSnapPut, appendSnapPut(make([]byte, 0, 128+len(put.Frame)), put))
}

// decodeSnapPut parses an OpSnapPut frame. A payload of any other
// version — a gob seal included — fails with OpenFast's ErrVersion
// before its body is touched.
func decodeSnapPut(payload []byte) (state.SnapshotPut, error) {
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return state.SnapshotPut{}, err
	}
	if op != transport.OpSnapPut {
		return state.SnapshotPut{}, fmt.Errorf("cluster: unknown fast opcode %#x on %s", op, MsgPutSnapshot)
	}
	r := transport.NewFastReader(body)
	put := readSnapPut(r)
	return put, r.Err()
}

// decodeSnapOutcomeReply parses an OpSnapPutReply frame.
func decodeSnapOutcomeReply(payload []byte) (snapOutcome, error) {
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return snapOutcome{}, err
	}
	if op != transport.OpSnapPutReply {
		return snapOutcome{}, fmt.Errorf("cluster: unexpected fast reply opcode %#x", op)
	}
	r := transport.NewFastReader(body)
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
	return transport.SealFast(transport.OpSnapPutReply, appendSnapOutcome(nil, o)), nil
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
