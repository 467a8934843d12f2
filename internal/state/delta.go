package state

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"

	"mdagent/internal/app"
	"mdagent/internal/obs"
	"mdagent/internal/transport"
)

// WrapDelta is the changed-components-only form of a wrap: everything a
// capture must ship when the receiver already holds the base state the
// delta was computed against. Coordinator state and the user profile are
// small and always ride along whole; only component payloads — the
// megabytes — are elided when unchanged. BaseDigest pins the exact base:
// ApplyDelta refuses to overlay a delta onto any other state, so a
// reordered or mis-routed delta degrades to a full-frame retransmission
// instead of silently reassembling garbage.
type WrapDelta struct {
	App        string
	FromHost   string
	BaseDigest [sha256.Size]byte // WrapDigest of the base wrap
	Components map[string][]byte // changed components only
	Kinds      map[string]app.ComponentKind
	CoordState map[string]string
	Profile    app.UserProfile
}

// TotalBytes reports the delta payload size (component bytes + coord
// state), mirroring Wrap.TotalBytes.
func (d WrapDelta) TotalBytes() int64 {
	var n int64
	for _, b := range d.Components {
		n += int64(len(b))
	}
	for k, v := range d.CoordState {
		n += int64(len(k) + len(v))
	}
	return n
}

// EncodeDelta serializes a delta frame — what the replicator ships to
// its center and a warm follow-me handoff puts on the wire — as a
// version 3 frame. It does not fail; the error is kept for the callers'
// shape.
func EncodeDelta(d WrapDelta) ([]byte, error) {
	return encodeV3(frameDelta, append(make([]byte, 0, 64), d.BaseDigest[:]...), &app.Wrap{
		App: d.App, FromHost: d.FromHost, Components: d.Components, Kinds: d.Kinds,
		CoordState: d.CoordState, Profile: d.Profile,
	}), nil
}

// DecodeDelta verifies and deserializes a delta frame. The components of
// a version 3 frame alias raw; a version 1 frame is gob-decoded.
func DecodeDelta(raw []byte) (WrapDelta, error) {
	version, body, err := verifyFrame(raw, frameDelta)
	if err != nil {
		return WrapDelta{}, err
	}
	var d WrapDelta
	if version == frameV1 {
		if err := decodeBody(body, &d); err != nil {
			return WrapDelta{}, err
		}
		return d, nil
	}
	w, err := decodeV3(body, "delta", func(r *transport.FastReader) {
		copy(d.BaseDigest[:], r.Fixed(sha256.Size))
	})
	if err != nil {
		return WrapDelta{}, err
	}
	d.App, d.FromHost, d.Components, d.Kinds = w.App, w.FromHost, w.Components, w.Kinds
	d.CoordState, d.Profile = w.CoordState, w.Profile
	return d, nil
}

// VerifyDelta checks a delta frame's header and payload checksum without
// decoding it.
func VerifyDelta(raw []byte) error {
	_, _, err := verifyFrame(raw, frameDelta)
	return err
}

// ApplyDelta reassembles the full wrap a delta describes: the base wrap
// with the changed components overlaid and coordinator state and profile
// replaced. The base's canonical digest must match the delta's
// BaseDigest (ErrBaseMismatch otherwise) — applying a delta to the wrong
// base is the one way this pipeline could restore wrong state, so it is
// checked at every reassembly site. The returned wrap shares no maps
// with the base, which stays usable as a base for later deltas.
//
// ApplyDelta hashes the whole base; a caller applying a run of deltas
// keeps a DigestedWrap instead, so each component is hashed once.
func ApplyDelta(base app.Wrap, d WrapDelta) (app.Wrap, error) {
	out, err := NewDigestedWrap(base).Apply(d)
	if err != nil {
		return app.Wrap{}, err
	}
	return out.Wrap, nil
}

// DigestedWrap is a wrap that carries the digests of its components, so
// a run of deltas over one base hashes each component once: the base's
// when its digest is first read, then only the components each delta
// changes. Nothing is hashed before the first Digest or Apply call, so a
// wrap nobody checks costs nothing. A DigestedWrap is never changed once
// built: Apply returns a new one and leaves its receiver usable as a
// base for other deltas.
type DigestedWrap struct {
	Wrap app.Wrap

	once   sync.Once
	sums   map[string][sha256.Size]byte // per component; nil until hashed
	digest [sha256.Size]byte
}

// NewDigestedWrap carries w; its components are hashed on first use.
func NewDigestedWrap(w app.Wrap) *DigestedWrap { return &DigestedWrap{Wrap: w} }

// Digest returns WrapDigest of the wrap, from the carried component
// digests when Apply built it, else hashing every component once.
func (dw *DigestedWrap) Digest() [sha256.Size]byte {
	dw.once.Do(func() {
		if dw.sums == nil {
			dw.sums = make(map[string][sha256.Size]byte, len(dw.Wrap.Components))
			for n, b := range dw.Wrap.Components {
				dw.sums[n] = ComponentDigest(dw.Wrap.Kinds[n], b)
			}
		}
		dw.digest = CombineDigests(dw.Wrap.App, dw.sums, dw.Wrap.CoordState, dw.Wrap.Profile)
	})
	return dw.digest
}

// Apply is ApplyDelta over a wrap whose component digests are carried:
// the base check reads them (hashing the base only if nothing has yet),
// and the result carries them too, with only the delta's components
// hashed anew.
func (dw *DigestedWrap) Apply(d WrapDelta) (*DigestedWrap, error) {
	if err := dw.check(d); err != nil {
		return nil, err
	}
	base := dw.Wrap
	size := len(base.Components) + len(d.Components)
	own := &DigestedWrap{
		Wrap: app.Wrap{Components: make(map[string][]byte, size), Kinds: make(map[string]app.ComponentKind, size)},
		sums: make(map[string][sha256.Size]byte, size),
	}
	for n, b := range base.Components {
		own.Wrap.Components[n] = b
		own.Wrap.Kinds[n] = base.Kinds[n]
		own.sums[n] = dw.sums[n]
	}
	out := own.overlaid(d)
	out.Wrap.CoordState = make(map[string]string, len(d.CoordState))
	maps.Copy(out.Wrap.CoordState, d.CoordState)
	return out, nil
}

// check refuses a delta that was not computed against dw: another
// app's, or one whose base digest is not dw's.
func (dw *DigestedWrap) check(d WrapDelta) error {
	if dw.Wrap.App != d.App {
		return fmt.Errorf("%w: delta for %q, base for %q", ErrBaseMismatch, d.App, dw.Wrap.App)
	}
	if got := dw.Digest(); got != d.BaseDigest {
		return fmt.Errorf("%w: base digest %x, delta wants %x", ErrBaseMismatch, got[:4], d.BaseDigest[:4])
	}
	return nil
}

// overlaid is Apply for a caller that owns dw and drops it (check has
// passed, so dw's digests are carried): d is written over dw's own maps
// and the result shares them, taking d's coordinator state and profile
// as they are. Reassembly folds a chain into one wrap this way.
func (dw *DigestedWrap) overlaid(d WrapDelta) *DigestedWrap {
	w := dw.Wrap
	if w.Components == nil {
		w.Components = make(map[string][]byte, len(d.Components))
	}
	if w.Kinds == nil {
		w.Kinds = make(map[string]app.ComponentKind, len(d.Components))
	}
	w.App, w.FromHost, w.CoordState, w.Profile = d.App, d.FromHost, d.CoordState, d.Profile
	for n, b := range d.Components {
		w.Components[n] = b
		w.Kinds[n] = d.Kinds[n]
		dw.sums[n] = ComponentDigest(d.Kinds[n], b)
	}
	return &DigestedWrap{Wrap: w, sums: dw.sums}
}

// mDigestBytes counts the bytes ComponentDigest hashes, process-wide:
// the measure of how often a state is hashed again.
var mDigestBytes = obs.Default.Counter("mdagent_state_digest_bytes_total")

// ComponentDigest hashes one component's serialized content with its
// kind — the per-component unit WrapDigest is built from, maintained
// incrementally by the replicator so unchanged components are never
// re-hashed (let alone re-serialized).
func ComponentDigest(kind app.ComponentKind, data []byte) [sha256.Size]byte {
	mDigestBytes.Add(int64(len(data)))
	var head [8]byte
	binary.BigEndian.PutUint32(head[:4], uint32(int32(kind)))
	binary.BigEndian.PutUint32(head[4:], uint32(len(data)))
	h := sha256.New()
	_, _ = h.Write(head[:])
	_, _ = h.Write(data)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// WrapDigest hashes a wrap's content canonically: a sorted walk over
// per-component digests, coordinator state, and profile. It is
// content-only (FromHost excluded), so the same application state
// digests identically wherever it was captured. CombineDigests computes
// the identical value from pre-computed component digests.
func WrapDigest(w app.Wrap) [sha256.Size]byte {
	sums := make(map[string][sha256.Size]byte, len(w.Components))
	for n, b := range w.Components {
		sums[n] = ComponentDigest(w.Kinds[n], b)
	}
	return CombineDigests(w.App, sums, w.CoordState, w.Profile)
}

// CombineDigests folds per-component digests plus coordinator state and
// profile into the canonical wrap digest. Gob encodes maps in random
// order, so hashing an encoded frame would defeat deduplication; this
// walk is deterministic.
func CombineDigests(appName string, comps map[string][sha256.Size]byte, coord map[string]string, profile app.UserProfile) [sha256.Size]byte {
	h := sha256.New()
	var size [4]byte
	writeField := func(s string) {
		binary.BigEndian.PutUint32(size[:], uint32(len(s)))
		_, _ = h.Write(size[:])
		_, _ = io.WriteString(h, s)
	}
	writeField(appName)
	names := make([]string, 0, len(comps))
	for n := range comps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeField(n)
		sum := comps[n]
		_, _ = h.Write(sum[:])
	}
	keys := make([]string, 0, len(coord))
	for k := range coord {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeField(k)
		writeField(coord[k])
	}
	writeField(profile.User)
	prefs := make([]string, 0, len(profile.Preferences))
	for k := range profile.Preferences {
		prefs = append(prefs, k)
	}
	sort.Strings(prefs)
	for _, k := range prefs {
		writeField(k)
		writeField(profile.Preferences[k])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
