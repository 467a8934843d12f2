package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Fuzz target for the replay path that reads bytes a crash, a bad disk
// or an old release left behind. Properties: replay never panics; it
// allocates in proportion to the file, never to a length the file
// claims; cutting the file at the returned offset (what Open does to a
// torn tail) is a fixed point; and what follows a frame never changes
// how that frame replayed.

// allocatedBy reports the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// seedWAL is a well-formed segment holding every frame kind.
func seedWAL() []byte {
	var seg []byte
	for i := 0; i < 4; i++ {
		fr, _ := encodeInlineFrame("k"+string(rune('0'+i)), bytes.Repeat([]byte{byte(i)}, 100))
		seg = append(seg, fr...)
	}
	seg = append(seg, encodeBlobFrame("snap", blobRef{Seg: 1, Off: 4096, Len: 70000, CRC: 0xdeadbeef})...)
	seg = append(seg, encodeDeleteFrame("k1")...)
	return seg
}

// addCrashSeeds seeds the corpus with the on-disk states the crash_test
// scenarios build from a well-formed file: torn mid-body, garbage
// appended, a flipped byte, an impossible length prefix.
func addCrashSeeds(f *testing.F, whole []byte) {
	f.Add(whole, []byte{})
	f.Add(whole[:len(whole)-len(whole)/5], []byte{})
	f.Add(whole, []byte{0x7F, 0x01, 0x02})
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped, []byte{})
	f.Add(whole, impossibleLength(1<<63+5))
	f.Add(whole, impossibleLength(1<<62))
	f.Add([]byte{}, []byte{0x80})
}

func FuzzReplaySegment(f *testing.F) {
	addCrashSeeds(f, seedWAL())
	path := filepath.Join(f.TempDir(), segmentName(1))

	replay := func(t *testing.T, raw []byte) ([]frame, int64) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var frames []frame
		end, err := replaySegment(path, func(fr frame) {
			fr.val = bytes.Clone(fr.val)
			frames = append(frames, fr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if end < 0 || end > int64(len(raw)) {
			t.Fatalf("valid end %d outside the %d-byte file", end, len(raw))
		}
		return frames, end
	}
	sameFrames := func(a, b []frame) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].op != b[i].op || a[i].key != b[i].key || a[i].ref != b[i].ref || !bytes.Equal(a[i].val, b[i].val) {
				return false
			}
		}
		return true
	}

	f.Fuzz(func(t *testing.T, data, garbage []byte) {
		var (
			frames []frame
			end    int64
		)
		// The file is read once and every key and captured value is a
		// copy of part of it; nothing may scale with a claimed length.
		if got, limit := allocatedBy(func() { frames, end = replay(t, data) }), uint64(1<<20+16*len(data)); got > limit {
			t.Fatalf("replaying %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		again, endAgain := replay(t, data[:end])
		if endAgain != end || !sameFrames(again, frames) {
			t.Fatalf("truncating at the valid end is not a fixed point: %d frames/%d -> %d frames/%d",
				len(frames), end, len(again), endAgain)
		}
		longer, endLonger := replay(t, append(data[:end:end], garbage...))
		if endLonger < end || len(longer) < len(frames) || !sameFrames(longer[:len(frames)], frames) {
			t.Fatalf("appending %d bytes changed the replayed prefix: %d frames/%d -> %d frames/%d",
				len(garbage), len(frames), end, len(longer), endLonger)
		}
	})
}
