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
// through EncodeWrap/EncodeSnapshot, which prepend a magic + version +
// CRC32 header, so a torn or corrupted frame is detected at decode time
// instead of silently restoring garbage state, and future frame-format
// changes can coexist with old persisted frames.
package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"mdagent/internal/app"
	"mdagent/internal/gobcodec"
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
	// ErrNeedFull is returned by a Publisher that cannot apply a delta
	// put (no base, or a base the delta was not computed against); the
	// replicator reacts by re-publishing a full frame.
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

// frameVersion is the current frame-format version. Decoders accept any
// version up to this one (there is only one so far).
const frameVersion = 1

// frameKind tags what a frame's payload decodes into.
type frameKind uint8

const (
	frameWrap     frameKind = 1 // app.Wrap (mobile-agent bundle)
	frameSnapshot frameKind = 2 // app.TaggedSnapshot (snapshot manager)
	frameDelta    frameKind = 3 // state.WrapDelta (changed components only)
)

// magic identifies MDAgent state frames ("MDST").
var magic = [4]byte{'M', 'D', 'S', 'T'}

// headerLen = magic(4) + version(1) + kind(1) + crc32(4).
const headerLen = 10

// encodeFrame gob-encodes payload and prepends the framing header.
func encodeFrame(kind frameKind, payload any) ([]byte, error) {
	body, err := gobcodec.Encode(payload)
	if err != nil {
		return nil, fmt.Errorf("state: encode frame: %w", err)
	}
	frame := make([]byte, headerLen, headerLen+len(body))
	copy(frame[0:4], magic[:])
	frame[4] = frameVersion
	frame[5] = byte(kind)
	binary.BigEndian.PutUint32(frame[6:10], crc32.ChecksumIEEE(body))
	return append(frame, body...), nil
}

// verifyFrame validates the header and payload checksum, returning the
// payload body. It is the single source of truth for frame validation —
// both the decoders and the cheap pre-restore check go through it.
func verifyFrame(raw []byte, kind frameKind) ([]byte, error) {
	if len(raw) < headerLen || !bytes.Equal(raw[0:4], magic[:]) {
		return nil, fmt.Errorf("%w (%d bytes)", ErrBadFrame, len(raw))
	}
	if v := raw[4]; v == 0 || v > frameVersion {
		return nil, fmt.Errorf("%w: frame v%d, codec v%d", ErrVersion, raw[4], frameVersion)
	}
	if got := frameKind(raw[5]); got != kind {
		return nil, fmt.Errorf("%w: frame kind %d, want %d", ErrKind, got, kind)
	}
	body := raw[headerLen:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(raw[6:10]) {
		return nil, fmt.Errorf("%w: payload crc %08x, header %08x", ErrChecksum,
			sum, binary.BigEndian.Uint32(raw[6:10]))
	}
	return body, nil
}

// decodeFrame verifies the header and checksum, then gob-decodes the
// payload into out.
func decodeFrame(raw []byte, kind frameKind, out any) error {
	body, err := verifyFrame(raw, kind)
	if err != nil {
		return err
	}
	if err := gobcodec.Decode(body, out); err != nil {
		return fmt.Errorf("state: decode frame: %w", err)
	}
	return nil
}

// EncodeWrap serializes a mobile-agent wrap for transfer — the frame
// follow-me and clone-dispatch put on the wire.
func EncodeWrap(w app.Wrap) ([]byte, error) {
	return encodeFrame(frameWrap, w)
}

// DecodeWrap verifies and deserializes a transferred wrap frame.
func DecodeWrap(raw []byte) (app.Wrap, error) {
	var w app.Wrap
	if err := decodeFrame(raw, frameWrap, &w); err != nil {
		return app.Wrap{}, err
	}
	return w, nil
}

// VerifySnapshot checks a snapshot frame's header and payload checksum
// without the cost of a full gob decode — failover uses it to validate a
// multi-megabyte frame before committing to a restore.
func VerifySnapshot(raw []byte) error {
	_, err := verifyFrame(raw, frameSnapshot)
	return err
}

// EncodeSnapshot serializes a tagged snapshot — the frame the Replicator
// streams to registry centers and failover restores from.
func EncodeSnapshot(ts app.TaggedSnapshot) ([]byte, error) {
	return encodeFrame(frameSnapshot, ts)
}

// DecodeSnapshot verifies and deserializes a replicated snapshot frame.
func DecodeSnapshot(raw []byte) (app.TaggedSnapshot, error) {
	var ts app.TaggedSnapshot
	if err := decodeFrame(raw, frameSnapshot, &ts); err != nil {
		return app.TaggedSnapshot{}, err
	}
	return ts, nil
}
