package transport

import (
	"encoding/binary"
	"fmt"
	"time"
)

// ProtoV2 is the compact binary fast path. A v2 frame is
// [version byte 0x02][opcode byte][binary body]: no gob type dictionary,
// no reflection, just length-prefixed fields in a fixed per-opcode
// layout. Gob (ProtoVersion=1 frames) is the long-tail encoding. Each op
// has exactly one of the two — the hot ops (snapshot put, watch event
// push, bundle push, migration check-in) are v2 frames — and either
// opener refuses the other's version byte with a typed ErrVersion.
const ProtoV2 byte = 2

// MaxProto is the newest protocol version this build speaks; servers
// report it in their info reply so operators can audit a fleet.
const MaxProto byte = ProtoV2

// Fast-path opcodes. The opcode selects the body layout; request and
// reply layouts are distinct opcodes so a frame is self-describing.
// 0x02 and 0x04 (the batched snapshot put and its reply) are retired:
// do not reuse.
const (
	// OpSnapPut carries one state.SnapshotPut.
	OpSnapPut byte = 0x01
	// OpSnapPutReply carries one snapshot-put outcome (stamp + flags).
	OpSnapPutReply byte = 0x03
	// OpEventBatch carries a watch-id-tagged run of sequenced events.
	OpEventBatch byte = 0x10
	// OpBundlePush carries one signed app bundle (name + raw bytes) —
	// the bundle-distribution hot path, where a multi-megabyte payload
	// makes gob's reflection and copy costs visible.
	OpBundlePush byte = 0x20
	// OpCheckin carries one migration check-in (follow-me or clone): a
	// small head, then the application's state frame as the rest of the
	// body, so the multi-megabyte frame is neither re-encoded on the way
	// out nor copied on the way in.
	OpCheckin byte = 0x30
)

// SealFast frames a fast-path body: [ProtoV2][opcode][body].
func SealFast(op byte, body []byte) []byte {
	out := make([]byte, 2+len(body))
	out[0] = ProtoV2
	out[1] = op
	copy(out[2:], body)
	return out
}

// OpenFast validates a v2 frame and returns its opcode and body. A
// frame of another version fails with ErrVersion, exactly as Open does
// for non-v1 frames, so both directions of a version mismatch surface
// the same typed refusal.
func OpenFast(payload []byte) (op byte, body []byte, err error) {
	if len(payload) < 2 {
		return 0, nil, fmt.Errorf("%w: short fast frame (%d bytes)", ErrVersion, len(payload))
	}
	if payload[0] != ProtoV2 {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, payload[0], ProtoV2)
	}
	return payload[1], payload[2:], nil
}

// --- Field writers: append-style, uvarint-based. ---

// AppendUint appends a uvarint.
func AppendUint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendBytes appends a uvarint length prefix and the bytes.
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(b []byte, v string) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendBool appends one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime appends a presence flag and the time as uvarint UnixNano.
// The flag is required: the simulated testbed clock starts at
// time.Unix(0, 0), whose UnixNano is 0, so a bare zero marker would
// collapse the virtual epoch into the zero time. Times before 1970 are
// not representable (the uint64 cast would scramble them); the
// middleware never produces one.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.AppendUvarint(b, uint64(t.UnixNano()))
}

// --- FastReader: bounds-checked sequential reads with one error. ---

// FastReader decodes a fast-frame body sequentially. Every read is
// bounds-checked; the first failure sticks (subsequent reads return
// zero values) and surfaces on Err, so decode call sites check once.
type FastReader struct {
	b   []byte
	off int
	err error
}

// NewFastReader reads from body (typically the body from OpenFast).
func NewFastReader(body []byte) *FastReader { return &FastReader{b: body} }

// Err returns the first decode failure, or nil.
func (r *FastReader) Err() error { return r.err }

func (r *FastReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: fast frame truncated at %s (offset %d of %d)", what, r.off, len(r.b))
	}
}

// Uint reads a uvarint.
func (r *FastReader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a length-prefixed byte slice. The result aliases the
// frame; callers that retain it past the frame's life must copy.
func (r *FastReader) Bytes() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("bytes body")
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

// String reads a length-prefixed string.
func (r *FastReader) String() string { return string(r.Bytes()) }

// Bool reads one byte as a bool.
func (r *FastReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.fail("bool")
		return false
	}
	v := r.b[r.off]
	r.off++
	return v != 0
}

// Fixed reads exactly n raw bytes (no length prefix) — digests and
// other fixed-width fields. The result aliases the frame.
func (r *FastReader) Fixed(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.fail("fixed field")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// Rest reads everything not yet read — a trailing field that needs no
// length prefix because it runs to the end of the body. The result
// aliases the frame.
func (r *FastReader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.b[r.off:]
	r.off = len(r.b)
	return v
}

// Time reads a presence flag + uvarint UnixNano (AppendTime's layout).
// Decoded times carry no monotonic clock; compare with time.Time.Equal.
func (r *FastReader) Time() time.Time {
	if !r.Bool() {
		return time.Time{}
	}
	ns := r.Uint()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, int64(ns))
}
