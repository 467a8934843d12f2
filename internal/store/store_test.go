package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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

// The engine constants tests shrink to reach rolls and compaction with
// small data.
func withSegmentBytes(n int64) Option   { return func(o *options) { o.segmentBytes = n } }
func withCompactMinDead(n int64) Option { return func(o *options) { o.compactMinDead = n } }

// keyCount is the number of live keys.
func keyCount(s *Store) int { return len(s.Keys("")) }

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
	if n := keyCount(s); n != 3 {
		t.Fatalf("Len = %d", n)
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
	if keyCount(s) != 3 {
		t.Fatalf("Len after 3 sessions = %d, want 3", keyCount(s))
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
	if keyCount(s2) != 1 {
		t.Fatalf("Len = %d, want 1", keyCount(s2))
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
	if err := s.wal.syncBarrier(); err != nil {
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
	if keyCount(s) != 800 {
		t.Fatalf("Len = %d, want 800", keyCount(s))
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
	if keyCount(s2) != 1600 {
		t.Fatalf("Len after replay = %d, want 1600", keyCount(s2))
	}
}

// An fsync must not block readers — the flush runs on the committer with
// no index locks held (compaction's barrier before it drops a segment).
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
	go func() { syncDone <- s.wal.syncBarrier() }()
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
		if n := keyCount(s); n != 1 {
			t.Errorf("Len during sync = %d", n)
		}
	}()
	select {
	case <-readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked while the committer was flushing")
	}
	release <- struct{}{} // let the stuck flush finish
	if err := <-syncDone; err != nil {
		t.Fatalf("syncBarrier = %v", err)
	}
}

// Values of any size live in the WAL: a value past the old 64 KiB blob
// threshold round-trips through a reopen and a compaction, and the
// store writes no blob segment.
func TestLargeValuesStayInTheWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	small := []byte("inline")
	big := bytes.Repeat([]byte("B"), 70<<10)
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
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, err := s2.Get("big"); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("Get(big) after reopen = %d bytes, %v", len(v), err)
	}
	if v, err := s2.Get("small"); err != nil || !bytes.Equal(v, small) {
		t.Fatalf("Get(small) after reopen = %q, %v", v, err)
	}
	if blobs, _ := filepath.Glob(filepath.Join(path, "blob-*.seg")); len(blobs) != 0 {
		t.Fatalf("blob segments written: %v", blobs)
	}
}

// A compaction pass reclaims the dead bytes counted before it started,
// and keeps counting what a writer supersedes in the fresh tail while it
// runs: that frame is not reclaimed until a later pass.
func TestCompactKeepsDeadBytesWrittenDuringPass(t *testing.T) {
	s, err := Open(t.TempDir(), WithSyncPolicy(SyncNever), withCompactMinDead(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put("cold", bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	tail := bytes.Repeat([]byte("t"), 4096)
	var once sync.Once
	// The pass's first fsync seals the segment it compacts; both puts
	// land after it, in the fresh tail, and the second supersedes the
	// first.
	hook := func() {
		once.Do(func() {
			for i := 0; i < 2; i++ {
				if err := s.Put("tail", tail); err != nil {
					t.Error(err)
				}
			}
		})
	}
	s.wal.testHookFsync.Store(&hook)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.wal.testHookFsync.Store(nil)
	if got, want := s.deadBytes.Load(), (entry{val: tail}).liveBytes("tail"); got != want {
		t.Fatalf("dead bytes after the pass = %d, want the %d the tail overwrite left", got, want)
	}
}

// Compaction passes racing overwrites and deletes lose nothing: each
// key replays to the last value its writer left, and a deleted key stays
// deleted.
func TestCompactDuringConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.log")
	s, err := Open(path, withSegmentBytes(4<<10), withCompactMinDead(-1))
	if err != nil {
		t.Fatal(err)
	}
	const writers, keys, rounds = 4, 8, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			select {
			case <-stop:
				compacted <- nil
				return
			default:
			}
			err = s.Compact()
		}
		compacted <- err
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("w%d/k%d", w, k)
					if err := s.Put(key, bytes.Repeat([]byte{byte(r)}, 100+k)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.Delete(fmt.Sprintf("w%d/k0", w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-compacted; err != nil {
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
	if n := keyCount(s2); n != writers*(keys-1) {
		t.Fatalf("%d keys after replay, want %d", n, writers*(keys-1))
	}
	for w := 0; w < writers; w++ {
		for k := 1; k < keys; k++ {
			want := bytes.Repeat([]byte{rounds - 1}, 100+k)
			if v, err := s2.Get(fmt.Sprintf("w%d/k%d", w, k)); err != nil || !bytes.Equal(v, want) {
				t.Fatalf("w%d/k%d = %d bytes, %v; want the last round's value", w, k, len(v), err)
			}
		}
	}
}

// goldenLegacyLog is a log the seed store itself wrote (put a, put b,
// delete a, then a final frame torn mid-body), captured at the last
// commit that still had the seed writer.
const goldenLegacyLog = "testdata/seed-v0.log"

// dirFiles reads every file under root, keyed by its path relative to
// root; a directory maps to nil.
func dirFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			out[rel] = nil
			return nil
		}
		out[rel], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertRefused opens a store at path and checks that Open fails with
// ErrLayout, names the commit that converts the layout, and leaves every
// file under dir as it found it.
func assertRefused(t *testing.T, dir, path string) {
	t.Helper()
	before := dirFiles(t, dir)
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("Open over a retired layout succeeded")
	}
	if !errors.Is(err, ErrLayout) || !strings.Contains(err.Error(), "3a28188") {
		t.Fatalf("Open = %v, want ErrLayout naming 3a28188", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused Open changed the files: %d before, %d after", len(before), len(after))
	}
}

// A seed-format log — at the store's path, or parked beside an empty
// directory by an older build's interrupted conversion — is refused with
// ErrLayout and left as it is.
func TestLegacyMigration(t *testing.T) {
	golden, err := os.ReadFile(goldenLegacyLog)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("seed-log", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "reg.log")
		if err := os.WriteFile(path, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		assertRefused(t, dir, path)
	})
	t.Run("parked", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "reg.log")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".legacy", golden, 0o644); err != nil {
			t.Fatal(err)
		}
		assertRefused(t, dir, path)
	})
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
				if keyCount(s2) != len(model) {
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
