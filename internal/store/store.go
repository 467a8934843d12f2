// Package store implements the embedded storage engine backing the
// registry center — the stand-in for the paper's Juddi + MySQL backend
// (§5: "We use Juddi and MySQL as the backend application and resource
// registry center"). The seed implementation was one map and one
// replayed gob log behind a single RWMutex; this engine keeps that API
// but is built to sustain heavy mixed registry/snapshot traffic:
//
//   - The index is sharded by key hash (fixed power-of-two shard count,
//     one RWMutex per shard), so concurrent registry writes and snapshot
//     puts stop serializing on one lock. Keys(prefix) is served by
//     per-shard sorted iteration merged at the edge.
//   - Durability is a group-committed write-ahead log: writers encode
//     their frame off-lock, enqueue it to a committer goroutine, and the
//     committer batches queued frames into one write (and one fsync,
//     per SyncPolicy), amortizing syscalls across concurrent writers.
//   - The WAL is rolled into fixed-size segments; compaction folds cold
//     segments one at a time into the tail off the write path (no
//     global lock — per-key re-emission under the shard lock), instead
//     of a stop-the-world full-file rewrite.
//   - Values at or above BlobThreshold (multi-MB snapshot base frames,
//     delta chains) are routed to a separate blob log; the WAL holds
//     only a checksummed reference, so a 2 MB base frame no longer
//     rides the registry log. Blob segments are garbage-collected when
//     compaction leaves them unreferenced.
//
// Ownership contract: Put copies the caller's value exactly once (into
// the encoded WAL frame, whose bytes also back the in-memory index), so
// callers may reuse their buffer after Put returns. Get returns the
// store's internal buffer for inline values — callers MUST treat it as
// read-only. The store never mutates a stored buffer in place (every
// overwrite installs a fresh one), so a slice returned by Get stays
// stable even across later Puts of the same key. Blob-routed values are
// read back from disk into a fresh buffer the caller owns.
package store

import (
	"errors"
	"fmt"
	"os"
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

// SyncPolicy selects when the engine fsyncs the logs relative to
// acknowledging a write.
type SyncPolicy uint8

const (
	// SyncInterval (the default) acknowledges a write once the committer
	// has written its batch; a background flush fsyncs every SyncEvery.
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

// DefaultSyncEvery is the SyncInterval flush cadence when Options does
// not set one — the loss window a crash can cost under that policy.
const DefaultSyncEvery = 50 * time.Millisecond

// Options tune the engine. The zero value means defaults.
type Options struct {
	// Shards is the index shard count, rounded up to a power of two
	// (default 16).
	Shards int
	// SegmentBytes rolls the WAL into a new segment once the active one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// BlobThreshold routes values of at least this many bytes to the
	// blob log (default 64 KiB). <0 disables blob routing.
	BlobThreshold int
	// BlobSegmentBytes rolls the blob log (default 64 MiB).
	BlobSegmentBytes int64
	// Sync is the commit durability policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the background flush period under SyncInterval
	// (default DefaultSyncEvery).
	SyncEvery time.Duration
	// CompactMinDead triggers a background compaction pass once the
	// estimated superseded bytes exceed this (default 4x SegmentBytes;
	// <0 disables auto-compaction — explicit Compact still works).
	CompactMinDead int64
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	o.Shards = n
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.BlobThreshold == 0 {
		o.BlobThreshold = 64 << 10
	}
	if o.BlobSegmentBytes <= 0 {
		o.BlobSegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.CompactMinDead == 0 {
		o.CompactMinDead = 4 * o.SegmentBytes
	}
	return o
}

// Option customizes Open.
type Option func(*Options)

// WithShards sets the index shard count (rounded up to a power of two).
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithSegmentBytes sets the WAL segment roll size.
func WithSegmentBytes(n int64) Option { return func(o *Options) { o.SegmentBytes = n } }

// WithBlobThreshold sets the inline/blob routing boundary (<0 disables
// blob routing).
func WithBlobThreshold(n int) Option { return func(o *Options) { o.BlobThreshold = n } }

// WithSyncPolicy sets the commit durability policy.
func WithSyncPolicy(p SyncPolicy) Option { return func(o *Options) { o.Sync = p } }

// WithCompactMinDead sets the auto-compaction trigger (<0 disables).
func WithCompactMinDead(n int64) Option { return func(o *Options) { o.CompactMinDead = n } }

// entry kinds in the sharded index.
const (
	entryInline = iota
	entryBlob
)

type entry struct {
	kind uint8
	val  []byte  // inline value bytes (a view into the WAL frame)
	blob blobRef // valid when kind == entryBlob
	seq  uint64  // WAL sequence of the frame that defined this entry
}

// liveBytes estimates the log bytes an entry pins (used for the
// dead-bytes compaction trigger when the entry is superseded).
func (e entry) liveBytes(key string) int64 {
	n := int64(len(key)) + frameOverhead
	if e.kind == entryBlob {
		return n + e.blob.Len
	}
	return n + int64(len(e.val))
}

type shard struct {
	mu sync.RWMutex
	m  map[string]entry
}

// Store is a concurrency-safe KV store with optional durability. See
// the package comment for the engine layout and the Get/Put ownership
// contract.
type Store struct {
	opts Options
	dir  string // "" for memory-only

	shards []shard
	mask   uint32

	wal   *wal       // nil for memory-only
	blobs *blobStore // nil for memory-only

	deadBytes  atomic.Int64 // estimated superseded log bytes since last compaction
	compactMu  sync.Mutex   // serializes compaction passes (and Close vs compaction)
	compacting atomic.Bool  // single-flight guard for background compaction
	closed     atomic.Bool

	met *metrics
}

// OpenMemory returns a volatile in-memory store (sharded index, no log).
func OpenMemory(opts ...Option) *Store {
	o := Options{}
	for _, fn := range opts {
		fn(&o)
	}
	return newStore("", o.withDefaults())
}

func newStore(dir string, o Options) *Store {
	s := &Store{
		opts:   o,
		dir:    dir,
		shards: make([]shard, o.Shards),
		mask:   uint32(o.Shards - 1),
		met:    newMetrics(dir),
	}
	for i := range s.shards {
		s.shards[i].m = make(map[string]entry)
	}
	return s
}

// Open opens (or creates) a durable store rooted at path, replaying the
// write-ahead log to recover state. A regular file at path — a log
// written by the seed single-file store — is migrated into the new
// layout first (crash-safely: the legacy file is parked at
// path+".legacy" until the converted store is on disk).
func Open(path string, opts ...Option) (*Store, error) {
	o := Options{}
	for _, fn := range opts {
		fn(&o)
	}
	o = o.withDefaults()

	if err := migrateLegacyIfNeeded(path); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := newStore(path, o)
	var err error
	if s.blobs, err = openBlobStore(path, &s.opts, s.met); err != nil {
		return nil, err
	}
	if s.wal, err = openWAL(path, &s.opts, s.met); err != nil {
		s.blobs.close()
		return nil, err
	}
	s.wal.blobs = s.blobs
	if err := s.replay(); err != nil {
		s.wal.close()
		s.blobs.close()
		return nil, err
	}
	s.wal.start()
	return s, nil
}

func (s *Store) shardOf(key string) *shard {
	// Inline FNV-1a: the per-op cost must stay trivial next to a map op.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &s.shards[h&s.mask]
}

// replay rebuilds the index from the WAL segments (oldest first). Blob
// references are validated against the blob files: refs that fall off a
// torn blob tail are dropped (they were never acknowledged under
// SyncAlways), refs into the final blob segment are CRC-checked since
// that is the crash zone.
func (s *Store) replay() error {
	return s.wal.replay(func(f frame, seq uint64) {
		sh := s.shardOf(f.key)
		// No locking: replay runs before the store is published.
		switch f.op {
		case opPutInline:
			s.applyLocked(sh, f.key, entry{kind: entryInline, val: f.val, seq: seq})
		case opPutBlob:
			if !s.blobs.validate(f.ref) {
				s.met.replaySkipped.Inc()
				return
			}
			s.applyLocked(sh, f.key, entry{kind: entryBlob, blob: f.ref, seq: seq})
		case opDelete:
			if old, ok := sh.m[f.key]; ok {
				s.deadBytes.Add(old.liveBytes(f.key) + int64(len(f.key)) + frameOverhead)
				delete(sh.m, f.key)
			}
		}
	})
}

// applyLocked installs an entry (the caller holds the shard lock, or is
// single-threaded replay) and accounts superseded bytes.
func (s *Store) applyLocked(sh *shard, key string, e entry) {
	if old, ok := sh.m[key]; ok {
		s.deadBytes.Add(old.liveBytes(key))
	}
	sh.m[key] = e
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

	if s.wal == nil {
		cp := make([]byte, len(value))
		copy(cp, value)
		sh := s.shardOf(key)
		sh.mu.Lock()
		sh.m[key] = entry{kind: entryInline, val: cp}
		sh.mu.Unlock()
		return nil
	}

	var (
		e     entry
		frame []byte
	)
	if s.opts.BlobThreshold >= 0 && len(value) >= s.opts.BlobThreshold {
		ref, err := s.blobs.append(value)
		if err != nil {
			return err
		}
		frame = encodeBlobFrame(key, ref)
		e = entry{kind: entryBlob, blob: ref}
	} else {
		var voff int
		frame, voff = encodeInlineFrame(key, value)
		e = entry{kind: entryInline, val: frame[voff : voff+len(value) : voff+len(value)]}
	}

	sh := s.shardOf(key)
	sh.mu.Lock()
	w := s.wal.enqueue(frame)
	e.seq = w
	s.applyLocked(sh, key, e)
	sh.mu.Unlock()

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

// Get returns the value stored under key. For inline values this is the
// store's internal buffer — read-only by contract (see the package
// comment); blob-routed values are read into a fresh buffer.
func (s *Store) Get(key string) ([]byte, error) {
	s.met.gets.Inc()
	sh := s.shardOf(key)
	for attempt := 0; ; attempt++ {
		sh.mu.RLock()
		e, ok := sh.m[key]
		sh.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		if e.kind == entryInline {
			return e.val, nil
		}
		v, err := s.blobs.read(e.blob)
		if err == nil {
			return v, nil
		}
		// A blob segment can be GC'd between the index read and the
		// pread if the entry was concurrently superseded; the fresh
		// lookup sees the superseding entry. A second failure is a real
		// I/O error.
		if attempt > 0 {
			return nil, err
		}
	}
}

// Delete removes key. Deleting a missing key is not an error.
func (s *Store) Delete(key string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.met.dels.Inc()
	sh := s.shardOf(key)
	if s.wal == nil {
		sh.mu.Lock()
		delete(sh.m, key)
		sh.mu.Unlock()
		return nil
	}
	frame := encodeDeleteFrame(key)
	sh.mu.Lock()
	old, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	w := s.wal.enqueue(frame)
	delete(sh.m, key)
	sh.mu.Unlock()
	s.deadBytes.Add(old.liveBytes(key) + int64(len(key)) + frameOverhead)

	var err error
	if s.wal.ackWait() {
		err = s.wal.wait(w)
	} else {
		err = s.wal.checkErr()
	}
	s.maybeAutoCompact()
	return err
}

// Keys returns all keys with the given prefix, sorted: each shard
// contributes its matches pre-sorted and the slices are merged at the
// edge, so no shard lock is held during the merge.
func (s *Store) Keys(prefix string) []string {
	lists := make([][]string, 0, len(s.shards))
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		var ks []string
		sh.mu.RLock()
		for k := range sh.m {
			if strings.HasPrefix(k, prefix) {
				ks = append(ks, k)
			}
		}
		sh.mu.RUnlock()
		if len(ks) > 0 {
			sort.Strings(ks)
			lists = append(lists, ks)
			total += len(ks)
		}
	}
	return mergeSorted(lists, total)
}

// mergeSorted k-way merges pre-sorted string slices.
func mergeSorted(lists [][]string, total int) []string {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	out := make([]string, 0, total)
	idx := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best < 0 || l[idx[i]] < lists[best][idx[best]] {
				best = i
			}
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}

// Scan calls fn for every key with the given prefix in sorted key
// order, with the stored value — one pass instead of Keys plus per-key
// Get. Values passed to fn follow the Get ownership contract
// (read-only for inline values). fn must not call back into the store's
// write path for the scanned keys. A non-nil error from fn aborts the
// scan and is returned.
func (s *Store) Scan(prefix string, fn func(key string, value []byte) error) error {
	s.met.scans.Inc()
	type kv struct {
		k string
		e entry
	}
	var all []kv
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if strings.HasPrefix(k, prefix) {
				all = append(all, kv{k, e})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	for _, p := range all {
		v := p.e.val
		if p.e.kind == entryBlob {
			var err error
			if v, err = s.readBlobEntry(p.k, p.e); err != nil {
				return err
			}
		}
		if err := fn(p.k, v); err != nil {
			return err
		}
	}
	return nil
}

// readBlobEntry reads a blob value captured by a scan, retrying through
// the index once if the blob segment was GC'd under a concurrent
// supersede (mirrors Get's retry).
func (s *Store) readBlobEntry(key string, e entry) ([]byte, error) {
	v, err := s.blobs.read(e.blob)
	if err == nil {
		return v, nil
	}
	v, gerr := s.Get(key)
	if gerr != nil {
		if errors.Is(gerr, ErrNotFound) {
			return nil, err
		}
		return nil, gerr
	}
	return v, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Sync flushes both logs to stable storage. It runs entirely on the
// committer, touching no index locks — readers and writers proceed
// while the disk flush is in flight.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	if s.closed.Load() {
		return ErrClosed
	}
	return s.wal.syncBarrier()
}

// DiskUsage reports the bytes the store occupies on disk (WAL segments
// plus blob segments). Zero for memory stores.
func (s *Store) DiskUsage() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.diskUsage() + s.blobs.diskUsage()
}

// Close flushes and closes the logs. Safe to call twice.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.wal == nil {
		return nil
	}
	// Wait out any in-flight compaction pass before tearing the logs
	// down; new passes see the closed flag and refuse.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	err := s.wal.close()
	if berr := s.blobs.close(); err == nil {
		err = berr
	}
	return err
}
