// Package state is MDAgent's unified state pipeline: one versioned,
// checksummed codec for every serialized application-state frame (the
// mobile agent's Wrap bundles and the snapshot manager's TaggedSnapshots),
// and a Replicator that streams each running application's latest snapshot
// to its smart space's registry center, whence the federation's
// push/anti-entropy channel carries it to every peer space. Failover
// re-homing (internal/cluster) restores the freshest replicated snapshot
// instead of a bare skeleton, so an application resumes where it left off
// even when its host crashes — the paper's "resume where the user left
// off" promise extended from graceful migration to host failure.
//
// Before this package, three serialization paths had diverged: follow-me
// shipped raw-gob Wraps, clone-dispatch re-encoded the same shape
// separately, and failover shipped nothing at all. Every frame now goes
// through WrapParts, EncodeSnapshot or EncodeDelta, which prepend a
// magic + version + CRC32 header, so a torn or corrupted frame is
// detected at decode time instead of silently restoring garbage state,
// and future frame-format changes can coexist with old persisted frames.
package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"mdagent/internal/app"
	"mdagent/internal/gobcodec"
	"mdagent/internal/transport"
)

// Codec errors, wrapped with frame detail.
var (
	// ErrBadFrame marks a frame too short or without the MDST magic.
	ErrBadFrame = errors.New("state: not a state frame")
	// ErrVersion marks a frame written by a newer codec than this build.
	ErrVersion = errors.New("state: unsupported frame version")
	// ErrKind marks a frame of the wrong kind (e.g. a snapshot frame
	// passed to DecodeWrap).
	ErrKind = errors.New("state: wrong frame kind")
	// ErrChecksum marks a frame whose payload failed CRC verification.
	ErrChecksum = errors.New("state: frame checksum mismatch")
	// ErrBaseMismatch marks a delta that does not apply to the offered
	// base state (wrong application or digest) — the receiver must fall
	// back to requesting a full frame.
	ErrBaseMismatch = errors.New("state: delta base mismatch")
	// ErrNeedFull is returned by a Publisher that will not apply a delta
	// put (no base, a base the delta was not computed against, or a
	// full chain); the replicator reacts by re-publishing a full frame.
	ErrNeedFull = errors.New("state: publisher needs a full frame")
	// ErrNotDurable is returned by a Publisher (or federation write)
	// running a synchronous write concern when the write landed locally
	// but fewer peers than the concern requires acknowledged it in time.
	// The write is NOT lost — anti-entropy keeps retrying delivery — but
	// it would not survive the local center dying first. The replicator
	// reacts by re-queueing the capture instead of advancing its acked
	// base, so the state is re-published until a put meets the concern.
	ErrNotDurable = errors.New("state: write acknowledged locally but not durable")
)

// IgnoreNotDurable treats a durability shortfall as success for callers
// that only need the write to land locally: the record still replicates
// via anti-entropy, and the shortfall already surfaced as a
// cluster.degraded kernel event. Callers that must KNOW the write is on
// peers (the replicator, the durability bench) check the error
// themselves.
func IgnoreNotDurable(err error) error {
	if errors.Is(err, ErrNotDurable) {
		return nil
	}
	return err
}

// Frame-format versions. Version 1 is a gob payload behind the header:
// the snapshot and delta frames written before version 3, and the wrap
// frames written before version 2. This build reads v1 and writes none.
// Version 2 is a wrap frame: a small gob meta, then the component bytes
// raw. Version 3 is a snapshot or delta frame: the same raw-component
// layout, with a meta of fast-frame fields (codec_v3.go).
const (
	frameV1 = 1
	frameV2 = 2
	frameV3 = 3
)

// frameKind tags what a frame's payload decodes into.
type frameKind uint8

const (
	frameWrap     frameKind = 1 // app.Wrap (mobile-agent bundle)
	frameSnapshot frameKind = 2 // app.TaggedSnapshot (snapshot manager)
	frameDelta    frameKind = 3 // state.WrapDelta (changed components only)
)

// reads reports whether this build reads version v of a frame of kind
// k: a wrap at v1 and v2, a snapshot or delta at v1 and v3.
func (k frameKind) reads(v byte) bool {
	if k == frameWrap {
		return v == frameV1 || v == frameV2
	}
	return v == frameV1 || v == frameV3
}

// magic identifies MDAgent state frames ("MDST").
var magic = [4]byte{'M', 'D', 'S', 'T'}

// headerLen = magic(4) + version(1) + kind(1) + crc32(4).
const headerLen = 10

// appendHeader appends a frame header whose CRC is filled in once the
// body is known.
func appendHeader(dst []byte, version byte, kind frameKind) []byte {
	dst = append(dst, magic[:]...)
	return append(dst, version, byte(kind), 0, 0, 0, 0)
}

// sealFrame writes the CRC32 of frame's body into its header.
func sealFrame(frame []byte) {
	binary.BigEndian.PutUint32(frame[6:headerLen], crc32.ChecksumIEEE(frame[headerLen:]))
}

// verifyFrame validates the header and payload checksum, returning the
// format version and the payload body. It is the single source of truth
// for frame validation — both the decoders and the cheap pre-restore
// check go through it.
func verifyFrame(raw []byte, kind frameKind) (byte, []byte, error) {
	if len(raw) < headerLen || !bytes.Equal(raw[0:4], magic[:]) {
		return 0, nil, fmt.Errorf("%w (%d bytes)", ErrBadFrame, len(raw))
	}
	got := frameKind(raw[5])
	if v := raw[4]; !got.reads(v) {
		return 0, nil, fmt.Errorf("%w: frame v%d of kind %d", ErrVersion, v, got)
	}
	if got != kind {
		return 0, nil, fmt.Errorf("%w: frame kind %d, want %d", ErrKind, got, kind)
	}
	body := raw[headerLen:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(raw[6:10]) {
		return 0, nil, fmt.Errorf("%w: payload crc %08x, header %08x", ErrChecksum,
			sum, binary.BigEndian.Uint32(raw[6:10]))
	}
	return raw[4], body, nil
}

func decodeBody(body []byte, out any) error {
	if err := gobcodec.Decode(body, out); err != nil {
		return fmt.Errorf("state: decode frame: %w", err)
	}
	return nil
}

// wrapMeta is everything of a wrap but its component bytes: the head of a
// version 2 wrap frame. Names is sorted; Kinds and Sizes run parallel to
// it, and the components follow the meta back to back in that order.
type wrapMeta struct {
	App        string
	FromHost   string
	Names      []string
	Kinds      []app.ComponentKind
	Sizes      []uint64
	CoordState map[string]string
	Profile    app.UserProfile
}

// WrapParts returns the wrap frame of w as parts whose join is the
// frame: first the header, the meta length and the meta in one fresh
// slice, then each component slice of w in Names order, shared, not
// copied. The checksum is computed across the parts. A sender that can
// write a list of slices (transport.Endpoint.Request) puts the
// components on the wire from the capture's own bytes.
//
// Layout (version 2): the 10-byte header, then the CRC'd body — a uvarint
// meta length, the gob wrapMeta, the component bytes in Names order.
func WrapParts(w app.Wrap) ([][]byte, error) {
	names := make([]string, 0, len(w.Components))
	for n := range w.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	meta := wrapMeta{
		App: w.App, FromHost: w.FromHost, Names: names,
		Kinds: make([]app.ComponentKind, len(names)), Sizes: make([]uint64, len(names)),
		CoordState: w.CoordState, Profile: w.Profile,
	}
	parts := make([][]byte, 1, 1+len(names))
	for i, n := range names {
		meta.Kinds[i] = w.Kinds[n]
		meta.Sizes[i] = uint64(len(w.Components[n]))
		parts = append(parts, w.Components[n])
	}
	enc, err := gobcodec.Encode(&meta)
	if err != nil {
		return nil, fmt.Errorf("state: encode frame: %w", err)
	}
	head := appendHeader(make([]byte, 0, headerLen+binary.MaxVarintLen64+len(enc)), frameV2, frameWrap)
	head = append(binary.AppendUvarint(head, uint64(len(enc))), enc...)
	sum := crc32.ChecksumIEEE(head[headerLen:])
	for _, p := range parts[1:] {
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	binary.BigEndian.PutUint32(head[6:headerLen], sum)
	parts[0] = head
	return parts, nil
}

// EncodeWrap serializes a mobile-agent wrap into one buffer — the frame
// a bundle carries as its initial state. It is the join of WrapParts.
func EncodeWrap(w app.Wrap) ([]byte, error) {
	parts, err := WrapParts(w)
	if err != nil {
		return nil, err
	}
	return bytes.Join(parts, nil), nil
}

// DecodeWrap verifies and deserializes a wrap frame. The components of a
// version 2 frame alias raw, each capped at its own length so an append
// reallocates instead of growing into its neighbour: the caller must not
// write into raw afterwards (captured bytes are immutable, see
// app.Component).
//
// Version 1 frames (one gob app.Wrap) are decoded and never written:
// signed MDAB bundles at rest hold them as their state section, and a
// signature pins the bytes, so they cannot be rewritten in place.
func DecodeWrap(raw []byte) (app.Wrap, error) {
	version, body, err := verifyFrame(raw, frameWrap)
	if err != nil {
		return app.Wrap{}, err
	}
	if version == frameV1 {
		var w app.Wrap
		if err := decodeBody(body, &w); err != nil {
			return app.Wrap{}, err
		}
		return w, nil
	}
	n, used := binary.Uvarint(body)
	if used <= 0 || n > uint64(len(body)-used) {
		return app.Wrap{}, fmt.Errorf("%w: wrap meta overruns the frame", ErrBadFrame)
	}
	var meta wrapMeta
	if err := decodeBody(body[used:used+int(n)], &meta); err != nil {
		return app.Wrap{}, err
	}
	if len(meta.Kinds) != len(meta.Names) || len(meta.Sizes) != len(meta.Names) {
		return app.Wrap{}, fmt.Errorf("%w: wrap meta lists %d names, %d kinds, %d sizes",
			ErrBadFrame, len(meta.Names), len(meta.Kinds), len(meta.Sizes))
	}
	w := app.Wrap{App: meta.App, FromHost: meta.FromHost, CoordState: meta.CoordState, Profile: meta.Profile}
	if len(meta.Names) > 0 {
		w.Components = make(map[string][]byte, len(meta.Names))
		w.Kinds = make(map[string]app.ComponentKind, len(meta.Names))
	}
	rest := body[used+int(n):]
	for i, name := range meta.Names {
		if i > 0 && name <= meta.Names[i-1] {
			return app.Wrap{}, fmt.Errorf("%w: wrap component %q out of order", ErrBadFrame, name)
		}
		size := meta.Sizes[i]
		if size > uint64(len(rest)) {
			return app.Wrap{}, fmt.Errorf("%w: wrap component %q claims %d bytes, %d remain",
				ErrBadFrame, name, size, len(rest))
		}
		w.Components[name] = rest[:size:size]
		w.Kinds[name] = meta.Kinds[i]
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return app.Wrap{}, fmt.Errorf("%w: %d bytes after the last wrap component", ErrBadFrame, len(rest))
	}
	return w, nil
}

// VerifySnapshot checks a snapshot frame's header and payload checksum
// without decoding it — failover uses it to validate a multi-megabyte
// frame before committing to a restore.
func VerifySnapshot(raw []byte) error {
	_, _, err := verifyFrame(raw, frameSnapshot)
	return err
}

// EncodeSnapshot serializes a tagged snapshot — the frame the Replicator
// streams to registry centers and failover restores from — as a version
// 3 frame. It does not fail; the error is kept for the callers' shape.
func EncodeSnapshot(ts app.TaggedSnapshot) ([]byte, error) {
	head := transport.AppendString(make([]byte, 0, 64), ts.Tag)
	head = transport.AppendTime(head, ts.At)
	head = transport.AppendUint(head, ts.ChangeSeq)
	return encodeV3(frameSnapshot, head, &ts.Wrap), nil
}

// DecodeSnapshot verifies and deserializes a replicated snapshot frame.
// The components of a version 3 frame alias raw, as DecodeWrap's do;
// a version 1 frame (written before version 3 existed, and still at
// rest in the centers' stores) is gob-decoded.
func DecodeSnapshot(raw []byte) (app.TaggedSnapshot, error) {
	version, body, err := verifyFrame(raw, frameSnapshot)
	if err != nil {
		return app.TaggedSnapshot{}, err
	}
	var ts app.TaggedSnapshot
	if version == frameV1 {
		if err := decodeBody(body, &ts); err != nil {
			return app.TaggedSnapshot{}, err
		}
		return ts, nil
	}
	ts.Wrap, err = decodeV3(body, "snapshot", func(r *transport.FastReader) {
		ts.Tag = r.String()
		ts.At = r.Time()
		ts.ChangeSeq = r.Uint()
	})
	if err != nil {
		return app.TaggedSnapshot{}, err
	}
	return ts, nil
}
