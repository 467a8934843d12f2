package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// openTemp opens a store in a fresh test directory, closed at cleanup.
func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// The engine constants tests shrink to reach rolls, blobs and
// compaction with small data.
func withSegmentBytes(n int64) Option   { return func(o *options) { o.segmentBytes = n } }
func withBlobThreshold(n int) Option    { return func(o *options) { o.blobThreshold = n } }
func withCompactMinDead(n int64) Option { return func(o *options) { o.compactMinDead = n } }

func TestPutGetDelete(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("Get = %q", got)
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete missing = %v, want nil", err)
	}
}

// The ownership contract: Get returns the store's buffer, and the store
// never mutates a stored buffer in place — a slice returned by Get
// stays stable across later overwrites of the same key.
func TestGetStableAcrossOverwrite(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Get("k")
	if err := s.Put("k", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if string(v1) != "abc" {
		t.Fatalf("earlier Get result mutated by overwrite: %q", v1)
	}
	v2, _ := s.Get("k")
	if string(v2) != "xyz" {
		t.Fatalf("Get after overwrite = %q", v2)
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := openTemp(t)
	buf := []byte("abc")
	if err := s.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatalf("stored value aliased caller buffer: %q", v)
	}
}

func TestKeysPrefixSorted(t *testing.T) {
	s := openTemp(t)
	for _, k := range []string{"app/zeta", "app/alpha", "res/one"} {
		if err := s.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Keys("app/")
	if len(got) != 2 || got[0] != "app/alpha" || got[1] != "app/zeta" {
		t.Fatalf("Keys = %v", got)
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("Len = %d", n)
	}
}

func TestScanVisitsSortedWithValues(t *testing.T) {
	s := openTemp(t)
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("s/%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var keys []string
	err := s.Scan("s/", func(k string, v []byte) error {
		keys = append(keys, k)
		want := byte(len(keys) - 1)
		if len(v) != 1 || v[0] != want {
			return fmt.Errorf("Scan(%s) = %v, want [%d]", k, v, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 20 || !sort.StringsAreSorted(keys) {
		t.Fatalf("Scan keys = %v", keys)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key resurrected after reopen")
	}
	v, err := s2.Get("b")
	if err != nil || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
}

func TestMultiSessionAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	for i := 0; i < 3; i++ {
		s, err := Open(path)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 3 {
		t.Fatalf("Len after 3 sessions = %d, want 3", s.Len())
	}
}

// newestSegment returns the path of the highest-numbered WAL segment in
// a store directory.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

func TestTornFinalRecordIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append a frame header claiming more
	// bytes than present.
	f, err := os.OpenFile(newestSegment(t, path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 0xde, 0xad}); err != nil { // uvarint 200, then garbage
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	defer s2.Close()
	v, err := s2.Get("good")
	if err != nil || string(v) != "ok" {
		t.Fatalf("good record lost: %q, %v", v, err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}

func TestCompactShrinksAndPreserves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	// Small segments so the overwrites span several, with
	// auto-compaction off to make the explicit Compact observable.
	s, err := Open(path, withSegmentBytes(16<<10), withCompactMinDead(-1))
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 200; i++ {
		if err := s.Put("hot", big); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("cold", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := s.DiskUsage()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.DiskUsage()
	if after >= before {
		t.Fatalf("compact did not shrink: %d -> %d", before, after)
	}
	// Post-compact appends must still replay.
	if err := s.Put("post", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, want := range map[string]string{"hot": string(big), "cold": "keep", "post": "compact"} {
		v, err := s2.Get(k)
		if err != nil || string(v) != want {
			t.Fatalf("after compact+reopen, Get(%s) = %v, %v", k, len(v), err)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := openTemp(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Put(key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
				s.Keys("w")
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("Len = %d, want 800", s.Len())
	}
}

func TestConcurrentDurableWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s, err := Open(path, withSegmentBytes(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Put(key, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1600 {
		t.Fatalf("Len after replay = %d, want 1600", s2.Len())
	}
}

// Satellite (a): Sync must not block readers — the flush runs on the
// committer with no index locks held.
func TestSyncDoesNotBlockReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s, err := Open(path, WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	hook := func() {
		once.Do(func() { close(entered) })
		<-release
	}
	s.wal.testHookFsync.Store(&hook)
	defer close(release)

	syncDone := make(chan error, 1)
	go func() { syncDone <- s.Sync() }()
	<-entered // the committer is now stuck inside the "disk flush"

	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		if v, err := s.Get("k"); err != nil || string(v) != "v" {
			t.Errorf("Get during sync = %q, %v", v, err)
		}
		if ks := s.Keys(""); len(ks) != 1 {
			t.Errorf("Keys during sync = %v", ks)
		}
		if n := s.Len(); n != 1 {
			t.Errorf("Len during sync = %d", n)
		}
	}()
	select {
	case <-readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked while Sync was flushing")
	}
	release <- struct{}{} // let the stuck flush finish
	if err := <-syncDone; err != nil {
		t.Fatalf("Sync = %v", err)
	}
}

// Large values route to the blob log and survive reopen.
func TestBlobRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s, err := Open(path, withBlobThreshold(256))
	if err != nil {
		t.Fatal(err)
	}
	small := []byte("inline")
	big := bytes.Repeat([]byte("B"), 4096)
	if err := s.Put("small", small); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get("big"); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("Get(big) = %d bytes, %v", len(v), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, withBlobThreshold(256))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, err := s2.Get("big"); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("Get(big) after reopen = %d bytes, %v", len(v), err)
	}
	if v, err := s2.Get("small"); err != nil || !bytes.Equal(v, small) {
		t.Fatalf("Get(small) after reopen = %q, %v", v, err)
	}
	if blobs, _ := filepath.Glob(filepath.Join(path, "blob-*.seg")); len(blobs) == 0 {
		t.Fatal("no blob segment written for a large value")
	}
}

// Overwritten blobs are garbage-collected with compaction once their
// segment seals, and survivors stay readable.
func TestBlobGC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s, err := Open(path,
		withBlobThreshold(256),
		func(o *options) { o.blobSegmentBytes = 8 << 10 },
		withCompactMinDead(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := bytes.Repeat([]byte("B"), 4096)
	// Overwrite one key enough times to seal several blob segments.
	for i := 0; i < 20; i++ {
		if err := s.Put("snap", append(big, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("keep", bytes.Repeat([]byte("K"), 1024)); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(path, "blob-*.seg"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(path, "blob-*.seg"))
	if len(after) >= len(before) {
		t.Fatalf("blob GC removed nothing: %d -> %d segments", len(before), len(after))
	}
	if v, err := s.Get("snap"); err != nil || v[len(v)-1] != 19 {
		t.Fatalf("live blob lost after GC: %v, %v", len(v), err)
	}
	if v, err := s.Get("keep"); err != nil || len(v) != 1024 {
		t.Fatalf("keep lost after GC: %d, %v", len(v), err)
	}
}

// goldenLegacyLog is a log the seed store itself wrote (put a, put b,
// delete a, then a final frame torn mid-body), captured at the last
// commit that still had the seed writer.
const goldenLegacyLog = "testdata/seed-v0.log"

// A pre-PR-8 single-file gob log is migrated into the engine layout.
func TestLegacyMigration(t *testing.T) {
	golden, err := os.ReadFile(goldenLegacyLog)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reg.log")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open over legacy log: %v", err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("legacy-deleted key resurrected")
	}
	if v, err := s.Get("b"); err != nil || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
	if _, err := s.Get("c"); !errors.Is(err, ErrNotFound) {
		t.Fatal("torn final legacy frame surfaced as a record")
	}
	if err := s.Put("c", []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("store path not a directory after migration: %v", err)
	}
	if _, err := os.Stat(path + ".legacy"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("parked legacy file not removed after migration")
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("Len after migration reopen = %d, want 2", s2.Len())
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncInterval, "interval": SyncInterval,
		"always": SyncAlways, "Never": SyncNever,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy(bogus) did not error")
	}
}

// Property: a durable store replayed from disk equals the in-memory
// model, across every sync policy, with segment rolls and occasional
// mid-stream compaction.
func TestReplayMatchesModel(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncInterval, SyncAlways, SyncNever} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := func(ops []struct {
				Key byte
				Val []byte
				Del bool
			}) bool {
				path := filepath.Join(t.TempDir(), "q.log")
				s, err := Open(path,
					WithSyncPolicy(pol),
					withSegmentBytes(2<<10),
					withBlobThreshold(512),
					withCompactMinDead(-1))
				if err != nil {
					return false
				}
				model := make(map[string][]byte)
				for i, op := range ops {
					k := fmt.Sprintf("k%d", op.Key%16)
					if op.Del {
						if s.Delete(k) != nil {
							return false
						}
						delete(model, k)
					} else {
						if s.Put(k, op.Val) != nil {
							return false
						}
						model[k] = op.Val
					}
					if i%7 == 3 {
						if s.Compact() != nil {
							return false
						}
					}
				}
				if s.Close() != nil {
					return false
				}
				s2, err := Open(path)
				if err != nil {
					return false
				}
				defer s2.Close()
				if s2.Len() != len(model) {
					return false
				}
				for k, want := range model {
					got, err := s2.Get(k)
					if err != nil || !bytes.Equal(got, want) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
