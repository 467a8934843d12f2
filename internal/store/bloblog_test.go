package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mdagent/internal/obs"
)

// encodeBlobFrame builds the WAL frame an older binary wrote for a value
// it kept in its blob log.
func encodeBlobFrame(key string, ref blobRef) []byte {
	payload := 1 + uvlen(uint64(len(key))) + len(key) +
		uvlen(ref.Seg) + uvlen(uint64(ref.Off)) + uvlen(uint64(ref.Len)) + 4 + 4
	buf := make([]byte, 0, uvlen(uint64(payload))+payload)
	buf = binary.AppendUvarint(buf, uint64(payload))
	hdr := len(buf)
	buf = append(buf, opPutBlob)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, ref.Seg)
	buf = binary.AppendUvarint(buf, uint64(ref.Off))
	buf = binary.AppendUvarint(buf, uint64(ref.Len))
	buf = binary.LittleEndian.AppendUint32(buf, ref.CRC)
	crc := crc32.ChecksumIEEE(buf[hdr:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf
}

// blobLayout is a store directory an older binary wrote, with values in
// a sealed and in the active blob segment (testdata/blob-layout/gen_test.go
// records it and says how).
const blobLayout = "testdata/blob-layout"

// copyBlobLayout copies the fixture's store into a fresh directory named
// name and returns its path and the values the writer served.
func copyBlobLayout(t *testing.T, name string) (string, map[string][]byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.CopyFS(dir, os.DirFS(filepath.Join(blobLayout, "store"))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(blobLayout, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]byte
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// replaySkips reads the replay-skip counter of the stores opened on
// directories named like dir.
func replaySkips(dir string) int64 {
	return obs.Default.Counter("mdagent_store_replay_skipped_total", "dir", filepath.Base(dir)).Value()
}

// openConverted opens dir, checks that it holds exactly want, byte for
// byte, and no blob segment, and returns the open store.
func openConverted(t *testing.T, dir string, want map[string][]byte) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if got := s.Keys(""); !slices.Equal(got, slices.Sorted(maps.Keys(want))) {
		t.Fatalf("keys = %v, want %v", got, slices.Sorted(maps.Keys(want)))
	}
	for k, v := range want {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) = %d bytes, %v; want the %d bytes the old store served", k, len(got), err, len(v))
		}
	}
	if blobs, _ := filepath.Glob(filepath.Join(dir, "blob-*.seg")); len(blobs) != 0 {
		t.Fatalf("blob segments left after the conversion: %v", blobs)
	}
	return s
}

// A directory in the blob layout converts at open: every value reads
// back as the old store served it, no blob segment remains, and the
// next open sees the same keys.
func TestBlobLayoutConverts(t *testing.T) {
	dir, want := copyBlobLayout(t, "blob-layout-converts")
	for _, k := range []string{"blob/sealed/1", "blob/active/2", "blob/over", "inline/b"} {
		if _, ok := want[k]; !ok {
			t.Fatalf("fixture serves no %s: %v", k, slices.Sorted(maps.Keys(want)))
		}
	}
	if _, ok := want["blob/gone"]; ok {
		t.Fatal("fixture serves its deleted blob key")
	}
	skips := replaySkips(dir)
	for open := 1; open <= 2; open++ {
		s := openConverted(t, dir, want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := replaySkips(dir) - skips; n != 0 {
		t.Fatalf("an intact directory cost %d replay skips", n)
	}
}

// TestConversionIsDeterministic: converting the same directory gives the
// same bytes every time — the conversion's compaction pass re-emits the
// live values in the log's write order, not in the index map's.
func TestConversionIsDeterministic(t *testing.T) {
	var first map[string][]byte
	for i := 0; i < 4; i++ {
		dir, want := copyBlobLayout(t, fmt.Sprintf("blob-layout-deterministic-%d", i))
		if err := openConverted(t, dir, want).Close(); err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range segs {
			if files[filepath.Base(p)], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		if first == nil {
			first = files
			continue
		}
		if !maps.EqualFunc(files, first, bytes.Equal) {
			t.Fatalf("conversion %d wrote %v, conversion 0 wrote %v (same names, different bytes, or both)",
				i, slices.Sorted(maps.Keys(files)), slices.Sorted(maps.Keys(first)))
		}
	}
}

// openDamaged copies the fixture, damages one blob segment and opens it:
// only the value named lost is dropped, and it counts as a replay skip.
func openDamaged(t *testing.T, name, seg, lost string, damage func(raw, val []byte) []byte) {
	t.Helper()
	dir, want := copyBlobLayout(t, name)
	path := filepath.Join(dir, seg)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, want[lost]) {
		t.Fatalf("%s does not hold %s's value", seg, lost)
	}
	if err := os.WriteFile(path, damage(raw, want[lost]), 0o644); err != nil {
		t.Fatal(err)
	}
	delete(want, lost)
	skips := replaySkips(dir)
	openConverted(t, dir, want)
	if n := replaySkips(dir) - skips; n != 1 {
		t.Fatalf("replay skips = %d, want 1", n)
	}
}

// A flipped byte in a sealed blob segment drops only the value it lies in.
func TestBlobLayoutCorruptSealedSegment(t *testing.T) {
	openDamaged(t, "blob-layout-flipped", "blob-00000001.seg", "blob/sealed/1", func(raw, val []byte) []byte {
		raw[bytes.Index(raw, val)+len(val)/2] ^= 0xff
		return raw
	})
}

// TestCrashPartialBlob tears the active blob segment mid-value: the
// torn value is dropped, and inline values and intact blobs are not.
func TestCrashPartialBlob(t *testing.T) {
	openDamaged(t, "blob-layout-torn", "blob-00000002.seg", "blob/active/2", func(raw, val []byte) []byte {
		if !bytes.HasSuffix(raw, val) {
			t.Fatal("blob/active/2 is not the active segment's last value")
		}
		return raw[:len(raw)-100]
	})
}

// A crash after the conversion's re-puts but before the blob files are
// removed leaves both; the next open converts again and loses nothing.
func TestBlobLayoutCrashBeforeRemoval(t *testing.T) {
	dir, want := copyBlobLayout(t, "blob-layout-crash")
	if err := openConverted(t, dir, want).Close(); err != nil {
		t.Fatal(err)
	}
	blobs, err := filepath.Glob(filepath.Join(blobLayout, "store", "blob-*.seg"))
	if err != nil || len(blobs) != 2 {
		t.Fatalf("fixture blob segments = %v, %v", blobs, err)
	}
	for _, b := range blobs {
		raw, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(b)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openConverted(t, dir, want)
	if err := s.Put("after", []byte("conversion")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want["after"] = []byte("conversion")
	openConverted(t, dir, want)
}

// A reference past its segment's end, or into a missing segment, is
// refused before any buffer of the claimed length is made.
func TestBlobRefOutsideItsSegment(t *testing.T) {
	dir, _ := copyBlobLayout(t, "blob-layout-refs")
	old, err := openBlobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer old.close()
	for _, ref := range []blobRef{
		{Seg: 1, Off: 3500, Len: 1000},
		{Seg: 1, Off: 0, Len: 1 << 62},
		{Seg: 1, Off: -1, Len: 10},
		{Seg: 9, Off: 0, Len: 10},
	} {
		if v, ok := old.read(ref); ok || v != nil {
			t.Errorf("read(%+v) = %d bytes, %v; want refused", ref, len(v), ok)
		}
	}
}
