package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/gobcodec"
)

func goldenWire(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// goldenWrap is what testdata/wire/wrap-v2.bin holds. One entry per map:
// gob writes maps in random order and the frame should be reproducible.
var goldenWrap = app.Wrap{
	App: "player", FromHost: "hostA",
	Components: map[string][]byte{
		"codec-logic": []byte("\x7fELF-golden-logic"),
		"empty":       {},
		"song1":       []byte("ID3-golden-song\x00\xff"),
	},
	Kinds: map[string]app.ComponentKind{
		"codec-logic": app.KindLogic, "empty": app.KindUI, "song1": app.KindData,
	},
	CoordState: map[string]string{"track": "song1"},
	Profile:    app.UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}},
}

// sameWrap compares what a wrap frame carries: the components and their
// kinds, coordinator state, profile. An empty component decodes as an
// empty, not a nil, slice, and a v1 frame can list a kind for a component
// it does not carry; neither is content.
func sameWrap(a, b app.Wrap) bool {
	if a.App != b.App || a.FromHost != b.FromHost || a.Profile.User != b.Profile.User ||
		len(a.Components) != len(b.Components) {
		return false
	}
	for n, v := range a.Components {
		if w, ok := b.Components[n]; !ok || !bytes.Equal(v, w) || a.Kinds[n] != b.Kinds[n] {
			return false
		}
	}
	return maps.Equal(a.CoordState, b.CoordState) && maps.Equal(a.Profile.Preferences, b.Profile.Preferences)
}

// TestGoldenWrapFrames pins both generations of the wrap frame. The v2
// golden is this PR's own frame; the gob meta inside carries type ids a
// process assigns at first use, so it must decode to the recorded value
// and its raw parts — header, component bytes in name order — must be
// where the layout says, but it need not re-encode to the same bytes.
// The v1 fixture was written by the parent commit's EncodeWrap (the last
// one that wrote v1): signed bundles at rest hold such frames, so it
// must keep decoding for as long as they can be installed.
func TestGoldenWrapFrames(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		golden := goldenWire(t, "wrap-v2.bin")
		if !bytes.HasPrefix(golden, []byte("MDST\x02\x01")) {
			t.Fatalf("header %x", golden[:6])
		}
		tail := []byte("\x7fELF-golden-logic" + "" + "ID3-golden-song\x00\xff")
		if !bytes.HasSuffix(golden, tail) {
			t.Fatalf("frame does not end in the raw components in name order:\n%x", golden)
		}
		got, err := DecodeWrap(golden)
		if err != nil || !sameWrap(got, goldenWrap) {
			t.Fatalf("decoded %+v (err %v), want %+v", got, err, goldenWrap)
		}
		again, err := EncodeWrap(goldenWrap)
		if err != nil || !bytes.Equal(again[:6], golden[:6]) || !bytes.HasSuffix(again, tail) {
			t.Fatalf("today's encoder writes another layout (err %v):\n%x", err, again)
		}
		if back, err := DecodeWrap(again); err != nil || !sameWrap(back, goldenWrap) {
			t.Fatalf("round trip %+v (err %v)", back, err)
		}
	})
	t.Run("v1-from-parent", func(t *testing.T) {
		fixture := goldenWire(t, "wrap-v1.bin")
		if fixture[4] != frameV1 {
			t.Fatalf("fixture is a v%d frame", fixture[4])
		}
		w, err := DecodeWrap(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if w.App != "bundled-notepad" || w.FromHost != "packer" ||
			string(w.Components["document"]) != "dear diary" || string(w.Components["editor-logic"]) != "logic-bytes" ||
			w.Kinds["document"] != app.KindData || w.Kinds["session"] != app.KindState ||
			w.CoordState["page"] != "3" || w.Profile.User != "bob" || w.Profile.Preferences["volume"] != "70" {
			t.Fatalf("v1 fixture decoded to %+v", w)
		}
		sess := app.NewState("session")
		if err := sess.Restore(w.Components["session"]); err != nil {
			t.Fatal(err)
		}
		if v, _ := sess.Get("cursor"); v != "42" {
			t.Fatalf("session cursor = %q", v)
		}
		// Nothing writes v1 any more: the same wrap re-encodes as v2.
		if raw, err := EncodeWrap(w); err != nil || raw[4] != frameV2 {
			t.Fatalf("EncodeWrap wrote v%d (err %v)", raw[4], err)
		}
	})
}

// TestWrapPartsShareComponents: the wrap encoder's parts are the frame's
// head, then the wrap's own component slices in name order, not copies,
// and their join is a frame whose checksum holds.
func TestWrapPartsShareComponents(t *testing.T) {
	parts, err := WrapParts(goldenWrap)
	if err != nil {
		t.Fatal(err)
	}
	names := slices.Sorted(maps.Keys(goldenWrap.Components))
	if len(parts) != 1+len(names) {
		t.Fatalf("%d parts for %d components", len(parts), len(names))
	}
	for i, name := range names {
		c, p := goldenWrap.Components[name], parts[1+i]
		if len(p) != len(c) || len(c) > 0 && &p[0] != &c[0] {
			t.Fatalf("part %d is not component %q itself", 1+i, name)
		}
	}
	if got, err := DecodeWrap(bytes.Join(parts, nil)); err != nil || !sameWrap(got, goldenWrap) {
		t.Fatalf("the joined parts decode to %+v (err %v)", got, err)
	}
}

// v2Frame seals an arbitrary meta and tail as a version 2 wrap frame with
// a correct CRC, so the decoder's own checks are what refuses it.
func v2Frame(t testing.TB, meta wrapMeta, tail []byte) []byte {
	t.Helper()
	head, err := gobcodec.Encode(&meta)
	if err != nil {
		t.Fatal(err)
	}
	f := appendHeader(nil, frameV2, frameWrap)
	f = binary.AppendUvarint(f, uint64(len(head)))
	f = append(f, head...)
	f = append(f, tail...)
	sealFrame(f)
	return f
}

func TestDecodeWrapRefusesMalformedV2(t *testing.T) {
	kinds := []app.ComponentKind{app.KindData, app.KindData}
	good := v2Frame(t, wrapMeta{App: "x", Names: []string{"a", "b"}, Kinds: kinds, Sizes: []uint64{1, 2}}, []byte("abb"))
	if w, err := DecodeWrap(good); err != nil || string(w.Components["b"]) != "bb" {
		t.Fatalf("well-formed frame: %+v, %v", w, err)
	}
	for name, frame := range map[string][]byte{
		"fewer sizes than names": v2Frame(t, wrapMeta{Names: []string{"a", "b"}, Kinds: kinds, Sizes: []uint64{3}}, []byte("abb")),
		"fewer kinds than names": v2Frame(t, wrapMeta{Names: []string{"a", "b"}, Kinds: kinds[:1], Sizes: []uint64{1, 2}}, []byte("abb")),
		"component overruns":     v2Frame(t, wrapMeta{Names: []string{"a", "b"}, Kinds: kinds, Sizes: []uint64{1, 3}}, []byte("abb")),
		"size wraps around":      v2Frame(t, wrapMeta{Names: []string{"a", "b"}, Kinds: kinds, Sizes: []uint64{1, 1<<64 - 1}}, []byte("abb")),
		"trailing bytes":         v2Frame(t, wrapMeta{Names: []string{"a", "b"}, Kinds: kinds, Sizes: []uint64{1, 1}}, []byte("abb")),
		"duplicate name":         v2Frame(t, wrapMeta{Names: []string{"a", "a"}, Kinds: kinds, Sizes: []uint64{1, 2}}, []byte("abb")),
		"names out of order":     v2Frame(t, wrapMeta{Names: []string{"b", "a"}, Kinds: kinds, Sizes: []uint64{1, 2}}, []byte("abb")),
		"meta longer than frame": func() []byte {
			f := appendHeader(nil, frameV2, frameWrap)
			f = binary.AppendUvarint(f, 1<<40)
			f = append(f, "short"...)
			sealFrame(f)
			return f
		}(),
		"no meta length": func() []byte {
			f := appendHeader(nil, frameV2, frameWrap)
			sealFrame(f)
			return f
		}(),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeWrap(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(frame), got)
		}
	}
	// The CRC still covers every byte behind the header.
	for _, at := range []int{headerLen, headerLen + 3, len(good) - 1} {
		torn := append([]byte(nil), good...)
		torn[at] ^= 0x40
		if _, err := DecodeWrap(torn); !errors.Is(err, ErrChecksum) {
			t.Errorf("flip at %d: err = %v, want ErrChecksum", at, err)
		}
	}
}

// goldenSnapshot and goldenDelta are what the snapshot and delta frames
// under testdata/wire hold, at v3 (this build's writer) and at v1
// (testdata/wire/gen_test.go, run on the last build that wrote v1).
var (
	goldenSnapshot = app.TaggedSnapshot{Tag: "replica", At: time.Unix(1_700_000_000, 5), Wrap: goldenWrap, ChangeSeq: 7}
	goldenDelta    = WrapDelta{
		App: "player", FromHost: "hostB", BaseDigest: WrapDigest(goldenWrap),
		Components: map[string][]byte{"song1": []byte("ID3-golden-song-2")},
		Kinds:      map[string]app.ComponentKind{"song1": app.KindData},
		CoordState: map[string]string{"track": "song2"},
		Profile:    goldenWrap.Profile,
	}
)

func sameSnapshot(a, b app.TaggedSnapshot) bool {
	return a.Tag == b.Tag && a.At.Equal(b.At) && a.ChangeSeq == b.ChangeSeq && sameWrap(a.Wrap, b.Wrap)
}

func sameDelta(a, b WrapDelta) bool {
	return a.BaseDigest == b.BaseDigest && sameWrap(deltaWrap(a), deltaWrap(b))
}

// deltaWrap is d's fields as a wrap, for comparing two deltas.
func deltaWrap(d WrapDelta) app.Wrap {
	return app.Wrap{App: d.App, FromHost: d.FromHost, Components: d.Components, Kinds: d.Kinds,
		CoordState: d.CoordState, Profile: d.Profile}
}

// TestGoldenSnapshotAndDeltaFrames pins both generations of the snapshot
// and delta frames. A v3 frame holds no gob, so each golden is what
// today's encoder writes, byte for byte (maps in key order); it decodes
// to the recorded value with its components aliasing the frame. The v1
// fixtures were written by the last build that wrote v1: the centers'
// stores hold such frames, so each must keep decoding to the same value
// and digest as its v3 twin.
func TestGoldenSnapshotAndDeltaFrames(t *testing.T) {
	snap, err := EncodeSnapshot(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := EncodeDelta(goldenDelta)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("snapshot-v3", func(t *testing.T) {
		golden := goldenWire(t, "snapshot-v3.bin")
		if !bytes.Equal(snap, golden) {
			t.Fatalf("today's encoder writes\n%x\nthe recorded frame is\n%x", snap, golden)
		}
		if !bytes.HasPrefix(golden, []byte("MDST\x03\x02")) ||
			!bytes.HasSuffix(golden, []byte("\x7fELF-golden-logic"+""+"ID3-golden-song\x00\xff")) {
			t.Fatalf("not a v3 snapshot frame ending in the raw components in name order:\n%x", golden)
		}
		ts, err := DecodeSnapshot(golden)
		if err != nil || !sameSnapshot(ts, goldenSnapshot) {
			t.Fatalf("decoded %+v (err %v)", ts, err)
		}
		song := ts.Wrap.Components["song1"]
		if &song[0] != &golden[len(golden)-len(song)] || cap(song) != len(song) {
			t.Fatal("the decoded component does not alias the frame, capped at its length")
		}
	})
	t.Run("delta-v3", func(t *testing.T) {
		golden := goldenWire(t, "delta-v3.bin")
		if !bytes.Equal(delta, golden) {
			t.Fatalf("today's encoder writes\n%x\nthe recorded frame is\n%x", delta, golden)
		}
		if !bytes.HasPrefix(golden, []byte("MDST\x03\x03")) || !bytes.HasSuffix(golden, []byte("ID3-golden-song-2")) {
			t.Fatalf("not a v3 delta frame ending in the raw component:\n%x", golden)
		}
		d, err := DecodeDelta(golden)
		if err != nil || !sameDelta(d, goldenDelta) {
			t.Fatalf("decoded %+v (err %v)", d, err)
		}
	})
	t.Run("v1-from-parent", func(t *testing.T) {
		snapV1, deltaV1 := goldenWire(t, "snapshot-v1.bin"), goldenWire(t, "delta-v1.bin")
		if snapV1[4] != frameV1 || deltaV1[4] != frameV1 {
			t.Fatalf("fixtures are v%d and v%d frames", snapV1[4], deltaV1[4])
		}
		ts, err := DecodeSnapshot(snapV1)
		if err != nil || !sameSnapshot(ts, goldenSnapshot) || WrapDigest(ts.Wrap) != WrapDigest(goldenWrap) {
			t.Fatalf("v1 snapshot decoded to %+v (err %v)", ts, err)
		}
		d1, err := DecodeDelta(deltaV1)
		if err != nil || !sameDelta(d1, goldenDelta) {
			t.Fatalf("v1 delta decoded to %+v (err %v)", d1, err)
		}
		d3, _ := DecodeDelta(delta)
		w1, err1 := ApplyDelta(ts.Wrap, d1)
		w3, err3 := ApplyDelta(goldenWrap, d3)
		if err1 != nil || err3 != nil || !sameWrap(w1, w3) || WrapDigest(w1) != WrapDigest(w3) {
			t.Fatalf("the v1 chain reassembles to %+v (err %v), the v3 one to %+v (err %v)", w1, err1, w3, err3)
		}
	})
}

// TestSnapshotAndDeltaFramesAreV3: the snapshot and delta writers write
// v3 only. A v2 stamp on either kind is a frame from a codec this build
// does not have, and so is a v3 stamp on a wrap frame.
func TestSnapshotAndDeltaFramesAreV3(t *testing.T) {
	snap, _ := EncodeSnapshot(goldenSnapshot)
	delta, _ := EncodeDelta(goldenDelta)
	wrap, err := EncodeWrap(goldenWrap)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		frame   []byte
		written byte
		stamp   byte
		verify  func([]byte) error
	}{
		{"snapshot", snap, frameV3, frameV2, VerifySnapshot},
		{"delta", delta, frameV3, frameV2, VerifyDelta},
		{"wrap", wrap, frameV2, frameV3, func(b []byte) error { _, err := DecodeWrap(b); return err }},
	} {
		if c.frame[4] != c.written {
			t.Fatalf("%s frame written as v%d, want v%d", c.name, c.frame[4], c.written)
		}
		if err := c.verify(c.frame); err != nil {
			t.Fatalf("%s frame: %v", c.name, err)
		}
		c.frame[4] = c.stamp // the CRC covers the body only
		if err := c.verify(c.frame); !errors.Is(err, ErrVersion) {
			t.Fatalf("v%d-stamped %s frame: err = %v, want ErrVersion", c.stamp, c.name, err)
		}
	}
}

// TestDecodeWrapSlicesCannotGrowIntoANeighbour: the decoded components
// are windows onto one buffer; each is capped at its own length, so an
// append reallocates instead of overwriting the component behind it.
func TestDecodeWrapSlicesCannotGrowIntoANeighbour(t *testing.T) {
	raw, err := EncodeWrap(goldenWrap)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), raw...)
	w, err := DecodeWrap(raw)
	if err != nil {
		t.Fatal(err)
	}
	for n, b := range w.Components {
		if cap(b) != len(b) {
			t.Fatalf("component %q: len %d, cap %d", n, len(b), cap(b))
		}
		_ = append(b, "overflow-into-the-next-component"...)
	}
	if !bytes.Equal(raw, pristine) {
		t.Fatal("appending to a decoded component wrote into the frame")
	}
	if again, err := DecodeWrap(raw); err != nil || !sameWrap(again, goldenWrap) {
		t.Fatalf("frame no longer decodes to the wrap: %+v, %v", again, err)
	}
}

// gobSlack is what encoding/gob may allocate on a length that bytes it
// was handed merely claim: it caps each message buffer and each slice at
// 10 MiB (internal/saferio) before it finds the bytes missing, and a type
// definition plus a value hold a handful of them. A fuzz target grants
// the gob blob inside a frame that much; everything else a decoder
// allocates must be in proportion to its input. A length field of ours
// (a component size, the meta length) spans 64 bits, so a `make` from one
// would not hide under the allowance.
const gobSlack = 64 << 20

// FuzzDecodeWrap: DecodeWrap reads bytes from a socket (a check-in) and
// from a signed file (a bundle's state section). Any input yields a typed
// error or a wrap that survives a re-encode/decode round trip; it never
// panics, never allocates in proportion to a length the frame merely
// claims (gobSlack aside), and a good frame still decodes afterwards.
func FuzzDecodeWrap(f *testing.F) {
	v2 := goldenWire(f, "wrap-v2.bin")
	v1 := goldenWire(f, "wrap-v1.bin")
	for _, g := range [][]byte{v2, v1} {
		f.Add(g)
		f.Add(g[:len(g)/2])
		f.Add(g[:headerLen+1])
		flipped := append([]byte(nil), g...)
		flipped[headerLen] ^= 0x7f // the v2 meta length / the first gob count
		sealFrame(flipped)
		f.Add(flipped)
	}
	f.Add(v2Frame(f, wrapMeta{Names: []string{"a"}, Kinds: []app.ComponentKind{1}, Sizes: []uint64{1 << 40}}, nil))
	huge := appendHeader(nil, frameV2, frameWrap)
	huge = binary.AppendUvarint(huge, 1<<62)
	sealFrame(huge)
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneWrapFrame(t, data)
		// The CRC stops most mutations at the door; let them in as well.
		if len(data) >= headerLen {
			sealed := append([]byte(nil), data...)
			sealFrame(sealed)
			fuzzOneWrapFrame(t, sealed)
		}
		if good, err := DecodeWrap(v2); err != nil || !sameWrap(good, goldenWrap) {
			t.Fatalf("a good frame no longer decodes: %v", err)
		}
	})
}

func fuzzOneWrapFrame(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := DecodeWrap(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(gobSlack+16*len(data)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
	if err != nil {
		if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) &&
			!errors.Is(err, ErrChecksum) && !strings.HasPrefix(err.Error(), "state: decode frame: ") {
			t.Fatalf("untyped error %v", err)
		}
		return
	}
	raw, err := EncodeWrap(w)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := DecodeWrap(raw); err != nil || !sameWrap(again, w) {
		t.Fatalf("round trip changed the wrap (err %v):\n%+v\n%+v", err, w, again)
	}
}

// FuzzStateFrame: DecodeSnapshot and DecodeDelta read what a center
// stores and serves, and a warm check-in's delta off a socket. Any input,
// read as either kind, yields a typed error or a value that survives a
// re-encode/decode round trip; it never panics. A v3 frame's component
// count is bounded by the smallest encoding of an entry, and decoding it
// allocates in proportion to the input; a v1 frame's gob gets gobSlack.
// Every input is also tried with its CRC re-sealed, so mutations reach
// the meta reader.
func FuzzStateFrame(f *testing.F) {
	good := goldenWire(f, "snapshot-v3.bin")
	for _, name := range []string{"snapshot-v3.bin", "delta-v3.bin", "snapshot-v1.bin", "delta-v1.bin"} {
		g := goldenWire(f, name)
		f.Add(g)
		f.Add(g[:len(g)/2])
		f.Add(g[:headerLen+1])
		flipped := append([]byte(nil), g...)
		flipped[headerLen] ^= 0x7f // the v3 meta length / the first gob count
		sealFrame(flipped)
		f.Add(flipped)
	}
	for _, kind := range []frameKind{frameSnapshot, frameDelta} {
		huge := appendHeader(nil, frameV3, kind)
		huge = binary.AppendUvarint(huge, 1<<62)
		sealFrame(huge)
		f.Add(huge)
	}
	// A delta meta claiming 2^40 components after its digest and two
	// empty strings, and one claiming a 2^40-byte component.
	claims := appendHeader(nil, frameV3, frameDelta)
	meta := binary.AppendUvarint(append(make([]byte, 32), 0, 0), 1<<40)
	claims = append(binary.AppendUvarint(claims, uint64(len(meta))), meta...)
	sealFrame(claims)
	f.Add(claims)
	big := appendHeader(nil, frameV3, frameDelta)
	meta = binary.AppendUvarint(append(make([]byte, 32), 0, 0, 1, 1, 'a', 2), 1<<40)
	big = append(binary.AppendUvarint(big, uint64(len(meta)+3)), append(meta, 0, 0, 0)...)
	sealFrame(big)
	f.Add(big)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneStateFrame(t, data)
		if len(data) >= headerLen {
			sealed := append([]byte(nil), data...)
			sealFrame(sealed)
			fuzzOneStateFrame(t, sealed)
		}
		if ts, err := DecodeSnapshot(good); err != nil || !sameSnapshot(ts, goldenSnapshot) {
			t.Fatalf("a good frame no longer decodes: %v", err)
		}
	})
}

// representable reports whether AppendTime keeps t: its UnixNano must
// not overflow (years 1678 to 2262), or it is the zero time.
func representable(t time.Time) bool {
	return t.IsZero() || time.Unix(0, t.UnixNano()).Equal(t)
}

func fuzzOneStateFrame(t *testing.T, data []byte) {
	limit := uint64(1<<16 + 64*len(data))
	if len(data) > 4 && data[4] == frameV1 {
		limit += gobSlack
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ts, serr := DecodeSnapshot(data)
	d, derr := DecodeDelta(data)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
	for _, err := range []error{serr, derr} {
		if err != nil && !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) &&
			!errors.Is(err, ErrChecksum) && !strings.HasPrefix(err.Error(), "state: decode frame: ") {
			t.Fatalf("untyped error %v", err)
		}
	}
	v3 := len(data) > 4 && data[4] == frameV3
	if serr == nil {
		if n := len(ts.Wrap.Components); v3 && n > len(data)/minComponentEntry {
			t.Fatalf("%d components from %d bytes", n, len(data))
		}
		raw, _ := EncodeSnapshot(ts)
		again, err := DecodeSnapshot(raw)
		if !representable(ts.At) {
			again.At = ts.At
		}
		if err != nil || !sameSnapshot(again, ts) {
			t.Fatalf("snapshot round trip (err %v):\n%+v\n%+v", err, ts, again)
		}
	}
	if derr == nil {
		if n := len(d.Components); v3 && n > len(data)/minComponentEntry {
			t.Fatalf("%d components from %d bytes", n, len(data))
		}
		raw, _ := EncodeDelta(d)
		if again, err := DecodeDelta(raw); err != nil || !sameDelta(again, d) {
			t.Fatalf("delta round trip (err %v):\n%+v\n%+v", err, d, again)
		}
	}
}
