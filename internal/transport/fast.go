package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// ProtoV2 is the compact binary fast path. A v2 frame is
// [version byte 0x02][opcode byte][binary body]: no gob type dictionary,
// no reflection, just length-prefixed fields in a fixed per-opcode
// layout. Gob (ProtoVersion=1 frames) is the long-tail encoding. Each op
// has exactly one of the two — the hot ops (snapshot put and fetch,
// watch event push, bundle push, federation batch, and every request and
// reply of a follow-me leg: check-in, plan-move, move-app, media read)
// are v2 frames — and either opener refuses the other's version byte
// with a typed ErrVersion.
const ProtoV2 byte = 2

// MaxProto is the newest protocol version this build speaks; servers
// report it in their info reply so operators can audit a fleet.
const MaxProto byte = ProtoV2

// Fast-path opcodes. The opcode selects the body layout; request and
// reply layouts are distinct opcodes so a frame is self-describing.
// 0x02 and 0x04 (the batched snapshot put and its reply), 0x30 (the
// check-in before it carried the source's budget and ended in a commit)
// and 0x31 (the check-in whose Desc and Rebindings were a gob blob, with
// a gob reply) are retired: do not reuse.
const (
	// OpSnapPut carries one state.SnapshotPut.
	OpSnapPut byte = 0x01
	// OpSnapPutReply carries one snapshot-put outcome (stamp + flags).
	OpSnapPutReply byte = 0x03
	// OpSnapGet carries one snapshot fetch: the app and what the
	// requester already holds of it.
	OpSnapGet byte = 0x05
	// OpSnapGetReply carries the fetched record's head and its frames
	// (the base, unless the reply is a delta-only tail, then each delta).
	OpSnapGetReply byte = 0x06
	// OpEventBatch carries a watch-id-tagged run of sequenced events.
	OpEventBatch byte = 0x10
	// OpBundlePush carries one signed app bundle (name + raw bytes) —
	// the bundle-distribution hot path, where a multi-megabyte payload
	// makes gob's reflection and copy costs visible.
	OpBundlePush byte = 0x20
	// OpCheckin carries one migration check-in (follow-me or clone): a
	// head of fixed fields, led by the source's remaining budget, then
	// the application's state frame as the rest of the body, so the
	// multi-megabyte frame is neither re-encoded on the way out nor
	// copied on the way in.
	OpCheckin byte = 0x32
	// OpCheckinReply carries the destination's answer to a check-in.
	OpCheckinReply byte = 0x33
	// OpFedBatch carries a run of federation pushes from one center to a
	// peer, in write order: each item a kind byte and its gob body.
	OpFedBatch byte = 0x40
	// OpFedBatchReply carries one result per OpFedBatch item.
	OpFedBatchReply byte = 0x41
	// OpPlanMove carries a follow-me source's registry.plan-move request.
	OpPlanMove byte = 0x50
	// OpPlanMoveReply carries the move plan.
	OpPlanMoveReply byte = 0x51
	// OpMoveApp carries a follow-me destination's registry.move-app
	// request, the migration's commit.
	OpMoveApp byte = 0x52
	// OpMoveAppReply carries whether the center demoted the source.
	OpMoveAppReply byte = 0x53
	// OpMediaRead carries one media.read request: a file and a range.
	OpMediaRead byte = 0x60
	// OpMediaReadReply carries the file's size and checksum and the
	// range's bytes as the rest of the body.
	OpMediaReadReply byte = 0x61
)

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

// OpenFastOp opens a fast frame that must be of opcode want, one of
// msgType's frames, and returns a reader over its body. A payload of any
// other version fails with OpenFast's ErrVersion before its body is
// touched, and so does a frame of another opcode — a retired one, or a
// newer build's — naming the unknown fast opcode.
func OpenFastOp(payload []byte, want byte, msgType string) (*FastReader, error) {
	op, body, err := OpenFast(payload)
	if err != nil {
		return nil, err
	}
	if op != want {
		return nil, fmt.Errorf("%w: unknown fast opcode %#x on %s", ErrVersion, op, msgType)
	}
	return NewFastReader(body), nil
}

// --- Field writers: append-style, uvarint-based. ---

// AppendUint appends a uvarint.
func AppendUint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendInt appends a zig-zag varint.
func AppendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
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

// AppendList appends a uvarint count and then each element of s, written
// by appendElem. ReadList reads it back.
func AppendList[T any](b []byte, s []T, appendElem func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = appendElem(b, v)
	}
	return b
}

// AppendStrings appends a list of strings.
func AppendStrings(b []byte, s []string) []byte { return AppendList(b, s, AppendString) }

// --- FastReader: bounds-checked sequential reads with one error. ---

// ErrBadFrame reports a fast-frame body that does not hold what its
// layout says: a field runs past the end, or a count claims more
// elements than bytes remain.
var ErrBadFrame = errors.New("transport: malformed fast frame")

// FastReader decodes a fast-frame body sequentially. Every read is
// bounds-checked; the first failure sticks (subsequent reads return
// zero values) and surfaces on Err, so decode call sites check once.
type FastReader struct {
	b   []byte
	off int
	err error
	// held is the bytes the unread elements of the enclosing lists take
	// at least (ReadList): a list an element nests cannot count on them.
	held int
}

// NewFastReader reads from body (typically the body from OpenFast).
func NewFastReader(body []byte) *FastReader { return &FastReader{b: body} }

// Err returns the first decode failure, or nil.
func (r *FastReader) Err() error { return r.err }

func (r *FastReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at %s (offset %d of %d)", ErrBadFrame, what, r.off, len(r.b))
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

// Int reads a zig-zag varint (AppendInt's layout).
func (r *FastReader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads a uvarint element count of a list whose every element
// takes at least minElem (>= 1) bytes of the body. A count that the
// bytes which remain cannot hold fails the read — the bytes held for the
// unread elements of the lists it is nested in excluded — so a decoder
// that sizes a slice or map by a count allocates at most its element's
// size over minElem per byte of the frame, not what the count claims.
func (r *FastReader) Count(minElem int) int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if avail := len(r.b) - r.off - r.held; n > 0 && (avail <= 0 || n > uint64(avail/minElem)) {
		r.fail("count")
		return 0
	}
	return int(n)
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

// ReadList reads AppendList's layout, each element with readElem, whose
// smallest encoding is minElem bytes (Count). A zero count reads as nil,
// as gob decodes an empty slice.
func ReadList[T any](r *FastReader, minElem int, readElem func(*FastReader) T) []T {
	n := r.Count(minElem)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	held := r.held
	for i := range out {
		r.held = held + (n-1-i)*minElem
		out[i] = readElem(r)
	}
	r.held = held
	return out
}

// Strings reads AppendStrings' layout.
func (r *FastReader) Strings() []string { return ReadList(r, 1, (*FastReader).String) }

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
