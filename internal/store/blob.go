package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// blobRef locates a large value in the blob log. The CRC covers the
// value bytes, letting replay reject references into a torn blob tail.
type blobRef struct {
	Seg uint64
	Off int64
	Len int64
	CRC uint32
}

func blobSegmentName(id uint64) string { return fmt.Sprintf("blob-%08d.seg", id) }

// blobStore is the append-only log for values at or above
// BlobThreshold. Values are raw bytes at known offsets — all framing
// lives in the WAL reference. Segments are sealed (fsynced) before a
// new one opens, so only the newest segment can hold torn bytes after
// a crash; torn space in any segment is reclaimed when blob GC deletes
// segments with no surviving references.
type blobStore struct {
	dir  string
	opts *options
	met  *metrics

	mu         sync.Mutex // append/roll state
	active     *os.File
	activeID   uint64
	activeSize int64
	dirty      bool // bytes written since the last fsync

	segMu sync.Mutex
	segs  map[uint64]int64 // sealed segment id -> size

	readMu  sync.Mutex
	readers map[uint64]*os.File
}

func openBlobStore(dir string, opts *options, met *metrics) (*blobStore, error) {
	b := &blobStore{
		dir: dir, opts: opts, met: met,
		segs:    make(map[uint64]int64),
		readers: make(map[uint64]*os.File),
	}
	names, err := filepath.Glob(filepath.Join(dir, "blob-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: scan blobs: %w", err)
	}
	sort.Strings(names)
	var ids []uint64
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "blob-%d.seg", &id); err != nil {
			continue
		}
		fi, err := os.Stat(name)
		if err != nil {
			return nil, fmt.Errorf("store: stat blob: %w", err)
		}
		b.segs[id] = fi.Size()
		ids = append(ids, id)
	}
	nextID := uint64(1)
	if len(ids) > 0 {
		// The newest segment stays active: appends land after any torn
		// crash bytes (dead space reclaimed by GC), offsets stay valid.
		last := ids[len(ids)-1]
		f, err := os.OpenFile(filepath.Join(dir, blobSegmentName(last)), os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: open blob segment: %w", err)
		}
		b.active = f
		b.activeID = last
		b.activeSize = b.segs[last]
		delete(b.segs, last)
	} else {
		if err := b.openSegmentLocked(nextID); err != nil {
			return nil, err
		}
	}
	b.met.blobBytes.Set(b.diskUsage())
	return b, nil
}

func (b *blobStore) openSegmentLocked(id uint64) error {
	f, err := os.OpenFile(filepath.Join(b.dir, blobSegmentName(id)), os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: open blob segment: %w", err)
	}
	b.active = f
	b.activeID = id
	b.activeSize = 0
	b.dirty = false
	return nil
}

// append writes the value and returns its reference. The WAL frame
// carrying the reference is enqueued by the caller strictly after this
// returns, so the committer's blob fsync (which precedes the WAL fsync)
// always covers the bytes behind any reference it makes durable.
func (b *blobStore) append(val []byte) (blobRef, error) {
	b.mu.Lock()
	if b.activeSize > 0 && b.activeSize+int64(len(val)) > b.opts.blobSegmentBytes {
		if err := b.sealLocked(); err != nil {
			b.mu.Unlock()
			return blobRef{}, err
		}
	}
	off := b.activeSize
	seg := b.activeID
	if _, err := b.active.Write(val); err != nil {
		b.mu.Unlock()
		return blobRef{}, fmt.Errorf("store: blob write: %w", err)
	}
	b.activeSize += int64(len(val))
	b.dirty = true
	b.mu.Unlock()
	b.met.blobBytes.Add(int64(len(val)))
	return blobRef{Seg: seg, Off: off, Len: int64(len(val)), CRC: crc32.ChecksumIEEE(val)}, nil
}

// sealLocked fsyncs the active segment, parks its handle for readers,
// and opens the next segment. Caller holds b.mu.
func (b *blobStore) sealLocked() error {
	if err := b.active.Sync(); err != nil {
		return fmt.Errorf("store: blob seal: %w", err)
	}
	b.readMu.Lock()
	b.readers[b.activeID] = b.active
	b.readMu.Unlock()
	b.segMu.Lock()
	b.segs[b.activeID] = b.activeSize
	b.segMu.Unlock()
	return b.openSegmentLocked(b.activeID + 1)
}

// sync flushes appended bytes. Called by the WAL committer before the
// WAL fsync so a durable reference never outlives its bytes.
func (b *blobStore) sync() error {
	b.mu.Lock()
	dirty := b.dirty
	b.dirty = false
	f := b.active
	b.mu.Unlock()
	if !dirty {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: blob fsync: %w", err)
	}
	return nil
}

func (b *blobStore) handle(seg uint64) (*os.File, error) {
	b.mu.Lock()
	if seg == b.activeID {
		f := b.active
		b.mu.Unlock()
		return f, nil
	}
	b.mu.Unlock()
	b.readMu.Lock()
	defer b.readMu.Unlock()
	if f, ok := b.readers[seg]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(b.dir, blobSegmentName(seg)))
	if err != nil {
		return nil, fmt.Errorf("store: blob open: %w", err)
	}
	b.readers[seg] = f
	return f, nil
}

// read fetches and checksums the referenced bytes into a fresh buffer.
func (b *blobStore) read(ref blobRef) ([]byte, error) {
	f, err := b.handle(ref.Seg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, ref.Len)
	if _, err := f.ReadAt(buf, ref.Off); err != nil {
		return nil, fmt.Errorf("store: blob read: %w", err)
	}
	if crc32.ChecksumIEEE(buf) != ref.CRC {
		return nil, fmt.Errorf("store: blob checksum mismatch (seg %d off %d)", ref.Seg, ref.Off)
	}
	return buf, nil
}

// validate checks a replayed reference. Sealed segments were fsynced at
// roll, so an extent check suffices; the active (newest) segment is the
// crash zone, so its references are CRC-verified. Only called during
// single-threaded replay.
func (b *blobStore) validate(ref blobRef) bool {
	if ref.Seg == b.activeID {
		if ref.Off+ref.Len > b.activeSize {
			return false
		}
		v, err := b.read(ref)
		return err == nil && int64(len(v)) == ref.Len
	}
	b.segMu.Lock()
	size, ok := b.segs[ref.Seg]
	b.segMu.Unlock()
	return ok && ref.Off+ref.Len <= size
}

// sealedIDs lists blob segments eligible for GC consideration.
func (b *blobStore) sealedIDs() []uint64 {
	b.segMu.Lock()
	ids := make([]uint64, 0, len(b.segs))
	for id := range b.segs {
		ids = append(ids, id)
	}
	b.segMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// removeSegment deletes an unreferenced sealed blob segment.
func (b *blobStore) removeSegment(id uint64) error {
	b.segMu.Lock()
	size, ok := b.segs[id]
	delete(b.segs, id)
	b.segMu.Unlock()
	if !ok {
		return nil
	}
	b.readMu.Lock()
	if f, ok := b.readers[id]; ok {
		f.Close()
		delete(b.readers, id)
	}
	b.readMu.Unlock()
	if err := os.Remove(filepath.Join(b.dir, blobSegmentName(id))); err != nil {
		return fmt.Errorf("store: remove blob segment: %w", err)
	}
	b.met.blobBytes.Add(-size)
	return nil
}

func (b *blobStore) diskUsage() int64 {
	b.mu.Lock()
	n := b.activeSize
	b.mu.Unlock()
	b.segMu.Lock()
	for _, sz := range b.segs {
		n += sz
	}
	b.segMu.Unlock()
	return n
}

func (b *blobStore) close() error {
	b.mu.Lock()
	var err error
	if b.dirty {
		err = b.active.Sync()
	}
	if cerr := b.active.Close(); err == nil {
		err = cerr
	}
	b.mu.Unlock()
	b.readMu.Lock()
	for _, f := range b.readers {
		f.Close()
	}
	b.readers = map[uint64]*os.File{}
	b.readMu.Unlock()
	return err
}
