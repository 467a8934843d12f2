// Package store implements the embedded storage engine backing the
// registry center — the stand-in for the paper's Juddi + MySQL backend
// (§5: "We use Juddi and MySQL as the backend application and resource
// registry center"). A store is a directory; its one writer is the
// center that opened it, which reads the store back only while opening
// and answers every later read from memory:
//
//   - The index is one map under one RWMutex. Keys collects its matches
//     under the read lock and sorts once.
//   - Durability is a group-committed write-ahead log: a writer encodes
//     its frame off-lock, enqueues it to a committer goroutine, and the
//     committer batches queued frames into one write (and one fsync, per
//     SyncPolicy).
//   - Every value, of any size, lives in the WAL. The WAL is rolled into
//     fixed-size segments; compaction folds cold segments one at a time
//     into the tail off the write path, instead of a stop-the-world
//     full-file rewrite. It learns a segment's live keys from the index
//     (an entry's WAL sequence names its segment), never by re-reading
//     the segment, and re-emits each under the index lock.
//   - A directory written before every value lived in the WAL also holds
//     blob-*.seg files, which its WAL frames reference. That layout is
//     refused with ErrLayout, as is anything older (DESIGN.md §2): the
//     one retired format this build still reads is inside the values,
//     the version 1 snapshot and delta frames (internal/state).
//
// Ownership contract: Put copies the caller's value exactly once (into
// the encoded WAL frame, whose bytes also back the in-memory index), so
// callers may reuse their buffer after Put returns. Get returns the
// store's internal buffer — callers MUST treat it as read-only. The
// store never mutates a stored buffer in place (every overwrite installs
// a fresh one), so a slice returned by Get stays stable even across
// later Puts of the same key.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("store: key not found")

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrLayout is returned when the bytes at rest are in a layout this
// build no longer reads. Commit 3a28188 is the last build that converts
// every retired layout: open the store once with it, then with this one.
var ErrLayout = errors.New("store: retired on-disk layout (open it once with a build of commit 3a28188 to convert it)")

// SyncPolicy selects when the engine fsyncs the log relative to
// acknowledging a write.
type SyncPolicy uint8

const (
	// SyncInterval (the default) acknowledges a write once the committer
	// has written its batch; a background flush fsyncs every DefaultSyncEvery.
	// A crash loses at most the last interval of acknowledged writes.
	SyncInterval SyncPolicy = iota
	// SyncAlways acknowledges a write only after its batch is fsynced —
	// group commit amortizes the fsync across every writer in the batch.
	// Zero acknowledged writes are lost on a crash.
	SyncAlways
	// SyncNever fsyncs only on explicit Sync, segment seal, and Close —
	// the seed store's behaviour.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses "always", "interval", or "never" ("" means
// interval) — the -store-sync flag vocabulary.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return SyncInterval, fmt.Errorf("store: unknown sync policy %q (want always, interval, or never)", s)
}

// DefaultSyncEvery is the SyncInterval flush cadence — the loss window
// a crash can cost under that policy.
const DefaultSyncEvery = 50 * time.Millisecond

// options tune the engine. The zero value means defaults; the sync
// policy is the only one a caller sets (WithSyncPolicy), the others are
// engine constants this package's tests shrink.
type options struct {
	// segmentBytes rolls the WAL into a new segment once the active one
	// exceeds this size (default 4 MiB).
	segmentBytes int64
	// sync is the commit durability policy (default SyncInterval).
	sync SyncPolicy
	// compactMinDead triggers a background compaction pass once the
	// estimated superseded bytes exceed this (default 4x segmentBytes;
	// <0 disables auto-compaction — explicit Compact still works).
	compactMinDead int64
}

func (o options) withDefaults() options {
	if o.segmentBytes <= 0 {
		o.segmentBytes = 4 << 20
	}
	if o.compactMinDead == 0 {
		o.compactMinDead = 4 * o.segmentBytes
	}
	return o
}

// Option customizes Open.
type Option func(*options)

// WithSyncPolicy sets the commit durability policy.
func WithSyncPolicy(p SyncPolicy) Option { return func(o *options) { o.sync = p } }

type entry struct {
	val []byte // the value bytes (a view into the WAL frame)
	seq uint64 // WAL sequence of the frame that defined this entry
}

// liveBytes estimates the log bytes an entry pins (used for the
// dead-bytes compaction trigger when the entry is superseded).
func (e entry) liveBytes(key string) int64 {
	return int64(len(key)) + frameOverhead + int64(len(e.val))
}

// Store is a concurrency-safe durable KV store. See the package comment
// for the engine layout and the Get/Put ownership contract.
type Store struct {
	opts options
	dir  string

	mu sync.RWMutex
	m  map[string]entry

	wal *wal

	deadBytes  atomic.Int64 // estimated superseded log bytes since last compaction
	compactMu  sync.Mutex   // serializes compaction passes (and Close vs compaction)
	compacting atomic.Bool  // single-flight guard for background compaction
	closed     atomic.Bool

	met *metrics
}

// Open opens (or creates) a durable store rooted at path, replaying the
// write-ahead log to recover state. A regular file at path (the seed
// single-file log), or one parked at path+".legacy" by an older build's
// interrupted conversion of it, and a directory that holds blob-*.seg
// files (the blob log) fail with ErrLayout and are left as they are.
func Open(path string, opts ...Option) (*Store, error) {
	o := options{}
	for _, fn := range opts {
		fn(&o)
	}

	for _, p := range []string{path, path + ".legacy"} {
		if fi, err := os.Stat(p); err == nil && !fi.IsDir() {
			return nil, fmt.Errorf("%w: %s is a seed-format log", ErrLayout, p)
		}
	}
	if blobs, _ := filepath.Glob(filepath.Join(path, "blob-*.seg")); len(blobs) > 0 {
		return nil, fmt.Errorf("%w: %s holds a blob log (%d blob-*.seg files), which commit %s is the last build to convert",
			ErrLayout, path, len(blobs), blobLogConverter)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{
		opts: o.withDefaults(),
		dir:  path,
		m:    make(map[string]entry),
		met:  newMetrics(path),
	}
	var err error
	if s.wal, err = openWAL(path, &s.opts, s.met); err != nil {
		return nil, err
	}
	if err := s.replay(); err != nil {
		s.wal.close()
		return nil, err
	}
	s.wal.start()
	return s, nil
}

// blobLogConverter is the last commit whose Open converts a directory in
// the blob layout (values of 64 KiB and more in blob-*.seg files, WAL
// frames referencing them) to the one-log layout.
const blobLogConverter = "9387257"

// replay rebuilds the index from the WAL segments (oldest first). A
// reference into a blob log is dropped and counted: Open refuses a
// directory that holds one, so such a frame's value is gone.
func (s *Store) replay() error {
	// No locking: replay runs before the store is published.
	return s.wal.replay(func(f frame, seq uint64) {
		switch f.op {
		case opPutInline:
			s.applyLocked(f.key, entry{val: f.val, seq: seq})
		case opPutBlob:
			s.met.replaySkipped.Inc()
		case opDelete:
			if old, ok := s.m[f.key]; ok {
				s.deadBytes.Add(old.liveBytes(f.key) + int64(len(f.key)) + frameOverhead)
				delete(s.m, f.key)
			}
		}
	})
}

// applyLocked installs an entry (the caller holds s.mu, or is
// single-threaded replay) and accounts superseded bytes.
func (s *Store) applyLocked(key string, e entry) {
	if old, ok := s.m[key]; ok {
		s.deadBytes.Add(old.liveBytes(key))
	}
	s.m[key] = e
}

// Put stores value under key, overwriting any previous value. The value
// is copied once; the caller may reuse its buffer immediately. Under
// SyncAlways, Put returns only after the write is fsynced; under
// interval/never it returns once the write is indexed and queued for
// commit (a committer failure surfaces on a later call, Sync, or
// Close), subject to queue backpressure.
func (s *Store) Put(key string, value []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	start := time.Now()
	defer func() { s.met.putWait.Observe(time.Since(start)) }()
	s.met.puts.Inc()

	frame, voff := encodeInlineFrame(key, value)
	e := entry{val: frame[voff : voff+len(value) : voff+len(value)]}

	s.mu.Lock()
	w := s.wal.enqueue(frame)
	e.seq = w
	s.applyLocked(key, e)
	s.mu.Unlock()
	return s.ack(w)
}

// ack waits for the frame with sequence w as the sync policy requires
// and starts a compaction pass if one is due.
func (s *Store) ack(w uint64) error {
	var err error
	if s.wal.ackWait() {
		err = s.wal.wait(w)
	} else {
		// interval/never: the enqueue is the acknowledgement. A committer
		// failure surfaces on the next operation, Sync, or Close.
		err = s.wal.checkErr()
	}
	s.maybeAutoCompact()
	return err
}

// Get returns the value stored under key: the store's internal buffer,
// read-only by contract (see the package comment).
func (s *Store) Get(key string) ([]byte, error) {
	s.met.gets.Inc()
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return e.val, nil
}

// Delete removes key. Deleting a missing key is not an error.
func (s *Store) Delete(key string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.met.dels.Inc()
	frame := encodeDeleteFrame(key)
	s.mu.Lock()
	old, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	w := s.wal.enqueue(frame)
	delete(s.m, key)
	s.mu.Unlock()
	s.deadBytes.Add(old.liveBytes(key) + int64(len(key)) + frameOverhead)
	return s.ack(w)
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	var ks []string
	s.mu.RLock()
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			ks = append(ks, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(ks)
	return ks
}

// DiskUsage reports the bytes the store's WAL segments occupy on disk.
func (s *Store) DiskUsage() int64 {
	return s.wal.diskUsage()
}

// Close flushes and closes the log. Safe to call twice.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Wait out any in-flight compaction pass before tearing the logs
	// down; new passes see the closed flag and refuse.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.wal.close()
}
