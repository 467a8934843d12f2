package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// Crash-recovery scenarios (torn final frame, torn frame at a segment
// boundary, replay-after-compact, impossible length prefix in the WAL
// and in a seed-format log; a partially-written blob of the old blob
// layout is in bloblog_test.go).
// Each simulates the on-disk state a crash can leave and asserts the
// store recovers to the last acknowledged state.

// TestCrashTornFinalFrame cuts bytes off the end of the newest segment
// — the classic mid-write crash. Everything before the torn frame
// survives; the torn frame (never acknowledged under SyncAlways) is
// truncated away, and the store keeps appending cleanly afterwards.
func TestCrashTornFinalFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s, err := Open(path, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := newestSegment(t, path)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-37); err != nil { // tear the last frame mid-body
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	for i := 0; i < 9; i++ { // k9's frame was torn; k0..k8 must survive
		if _, err := s2.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("k%d lost to an unrelated torn frame: %v", i, err)
		}
	}
	if err := s2.Put("post", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, err := s3.Get("post"); err != nil || string(v) != "crash" {
		t.Fatalf("append after truncated reopen lost: %q, %v", v, err)
	}
}

// TestCrashCorruptionAtSegmentBoundary flips a byte inside an old,
// sealed segment. Replay skips the rest of that segment and continues
// with the later ones — every key whose live write is in a later
// segment survives.
func TestCrashCorruptionAtSegmentBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s, err := Open(path, withSegmentBytes(2<<10), withCompactMinDead(-1))
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 300)
	// Two full rounds: the second round's writes land in later segments
	// than the first round's, so every live entry postdates segment 1.
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			if err := s.Put(fmt.Sprintf("k%02d", i), append(val, byte(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(path, "wal-*.seg"))
	sort.Strings(segs)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Corrupt the middle of the first (sealed) segment.
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0xFF}, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open with corrupt sealed segment: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, err := s2.Get(k)
		if err != nil || v[len(v)-1] != 1 {
			t.Fatalf("Get(%s) after skipping corrupt segment = len %d, %v", k, len(v), err)
		}
	}
}

// TestCrashReplayAfterCompact crashes (torn tail) after an incremental
// compaction pass and verifies the re-emitted entries replay correctly.
func TestCrashReplayAfterCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s, err := Open(path, withSegmentBytes(2<<10), withCompactMinDead(-1))
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string][]byte)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i%10)
		v := bytes.Repeat([]byte{byte(i)}, 100+i*20)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("after", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	model["after"] = []byte("compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: tear the newest segment's tail (garbage append).
	f, err := os.OpenFile(newestSegment(t, path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7F, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open after compact+crash: %v", err)
	}
	defer s2.Close()
	if keyCount(s2) != len(model) {
		t.Fatalf("Len = %d, want %d", keyCount(s2), len(model))
	}
	for k, want := range model {
		got, err := s2.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = len %d, %v (want len %d)", k, len(got), err, len(want))
		}
	}
}

// impossibleLength is a tail no writer produces: a length prefix far
// larger than any file, followed by a few junk bytes.
func impossibleLength(n uint64) []byte {
	return append(binary.AppendUvarint(nil, n), "junk-after-the-length"...)
}

// TestCrashCorruptLengthPrefix leaves a length varint >= 2^63 at the
// tail of the newest segment. Read as a signed number it is negative
// and slips past a "body longer than the file" check; replay must treat
// it as a torn frame, truncate it away and keep every earlier record.
func TestCrashCorruptLengthPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s, err := Open(path, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(newestSegment(t, path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(impossibleLength(1<<63 + 5)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open after corrupt length prefix: %v", err)
	}
	for i := 0; i < 10; i++ {
		if v, err := s2.Get(fmt.Sprintf("k%d", i)); err != nil || len(v) != 100 {
			t.Fatalf("k%d lost to a corrupt tail: len %d, %v", i, len(v), err)
		}
	}
	if err := s2.Put("post", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, err := s3.Get("post"); err != nil || string(v) != "crash" {
		t.Fatalf("append after truncated reopen lost: %q, %v", v, err)
	}
}

// TestLegacyMigrationCorruptLength replaces the golden seed log's torn
// final frame with a length prefix of 2^62 and parks it where an older
// build's interrupted conversion would: Open refuses it with ErrLayout
// without reading it, so nothing is allocated from the claimed length.
func TestLegacyMigrationCorruptLength(t *testing.T) {
	golden, err := os.ReadFile(goldenLegacyLog)
	if err != nil {
		t.Fatal(err)
	}
	intact := 0 // end of the last frame whose body is wholly in the file
	for {
		n, vn := binary.Uvarint(golden[intact:])
		if vn <= 0 || n > uint64(len(golden)-intact-vn) {
			break
		}
		intact += vn + int(n)
	}
	if intact == 0 || intact == len(golden) {
		t.Fatalf("golden log has %d intact bytes of %d, want a torn tail after some records", intact, len(golden))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "reg.log")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".legacy", append(golden[:intact:intact], impossibleLength(1<<62)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := allocatedBy(func() { assertRefused(t, dir, path) }); n > 1<<20 {
		t.Fatalf("refusing a %d-byte log allocated %d bytes", intact, n)
	}
}
