package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// WAL op codes.
const (
	opPutInline byte = 1
	opPutBlob   byte = 2
	opDelete    byte = 3
)

// frameOverhead approximates the per-record framing cost (length prefix,
// op, varints, checksum) for dead-bytes accounting.
const frameOverhead = 24

// frame is one decoded WAL record.
type frame struct {
	op  byte
	key string
	val []byte // inline value (a view into the decoded body)
	ref blobRef
}

func uvlen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encodeInlineFrame builds a put frame in a single allocation and
// returns it with the offset of the value bytes, so the index can alias
// the frame instead of holding a second copy of the value.
func encodeInlineFrame(key string, val []byte) ([]byte, int) {
	bodyLen := 1 + uvlen(uint64(len(key))) + len(key) + uvlen(uint64(len(val))) + len(val) + 4
	buf := make([]byte, 0, uvlen(uint64(bodyLen))+bodyLen)
	buf = binary.AppendUvarint(buf, uint64(bodyLen))
	hdr := len(buf)
	buf = append(buf, opPutInline)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	voff := len(buf)
	buf = append(buf, val...)
	crc := crc32.ChecksumIEEE(buf[hdr:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf, voff
}

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

func encodeDeleteFrame(key string) []byte {
	bodyLen := 1 + uvlen(uint64(len(key))) + len(key) + 4
	buf := make([]byte, 0, uvlen(uint64(bodyLen))+bodyLen)
	buf = binary.AppendUvarint(buf, uint64(bodyLen))
	hdr := len(buf)
	buf = append(buf, opDelete)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	crc := crc32.ChecksumIEEE(buf[hdr:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf
}

var errBadFrame = errors.New("store: bad frame")

// decodeBody parses one frame body (without the length prefix),
// verifying the trailing checksum.
func decodeBody(body []byte) (frame, error) {
	if len(body) < 5 {
		return frame{}, errBadFrame
	}
	crc := binary.LittleEndian.Uint32(body[len(body)-4:])
	if crc32.ChecksumIEEE(body[:len(body)-4]) != crc {
		return frame{}, errBadFrame
	}
	f := frame{op: body[0]}
	rest := body[1 : len(body)-4]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return frame{}, errBadFrame
	}
	f.key = string(rest[n : n+int(klen)])
	rest = rest[n+int(klen):]
	switch f.op {
	case opPutInline:
		vlen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) != vlen {
			return frame{}, errBadFrame
		}
		f.val = rest[n : n+int(vlen) : n+int(vlen)]
	case opPutBlob:
		var vals [3]uint64
		for i := range vals {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return frame{}, errBadFrame
			}
			vals[i] = v
			rest = rest[n:]
		}
		if len(rest) != 4 {
			return frame{}, errBadFrame
		}
		f.ref = blobRef{Seg: vals[0], Off: int64(vals[1]), Len: int64(vals[2]),
			CRC: binary.LittleEndian.Uint32(rest)}
	case opDelete:
		if len(rest) != 0 {
			return frame{}, errBadFrame
		}
	default:
		return frame{}, errBadFrame
	}
	return f, nil
}

// segmentInfo describes one sealed WAL segment.
type segmentInfo struct {
	id     uint64
	size   int64
	minSeq uint64 // first WAL sequence applied from this segment (0 = none)
	maxSeq uint64
}

func segmentName(id uint64) string { return fmt.Sprintf("wal-%08d.seg", id) }

// wal is the segmented, group-committed write-ahead log. Writers
// enqueue encoded frames; a single committer goroutine batches them
// into one write (and one fsync, per SyncPolicy) and wakes the waiting
// writers. All file I/O happens on the committer — Sync never holds an
// index lock.
type wal struct {
	dir   string
	opts  *Options
	met   *metrics
	blobs *blobStore // flushed before the WAL fsync so refs never outlive their bytes

	// Enqueue side.
	qmu         sync.Mutex
	queue       [][]byte
	nextSeq     uint64 // last assigned sequence
	wake        chan struct{}
	queuedBytes atomic.Int64 // frame bytes enqueued but not yet written
	errSet      atomic.Bool  // fast-path flag: w.err != nil

	// Waiter side.
	wmu        sync.Mutex
	cond       *sync.Cond
	ackedSeq   uint64 // per-policy acknowledgement watermark
	syncedSeq  uint64 // fsync watermark
	syncTarget uint64 // pending Sync/interval-flush request
	rollTarget uint64 // pending forced segment roll (compaction)
	rolledSeq  uint64
	err        error // sticky committer failure

	// Committer-owned.
	active     *os.File
	activeID   uint64
	activeMin  uint64 // first sequence written to the active segment
	writtenSeq uint64
	batchBuf   []byte

	activeSize atomic.Int64

	// Sealed segments, oldest first.
	segMu sync.Mutex
	segs  []segmentInfo

	testHookFsync atomic.Pointer[func()] // test-only: runs on the committer before each fsync

	stopc chan struct{}
	done  chan struct{}
}

// openWAL scans dir for segments and prepares (but does not start) the
// committer. Call replay, then start.
func openWAL(dir string, opts *Options, met *metrics) (*wal, error) {
	w := &wal{
		dir: dir, opts: opts, met: met,
		wake:  make(chan struct{}, 1),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.wmu)
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: scan wal: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.seg", &id); err != nil {
			continue
		}
		fi, err := os.Stat(name)
		if err != nil {
			return nil, fmt.Errorf("store: stat segment: %w", err)
		}
		w.segs = append(w.segs, segmentInfo{id: id, size: fi.Size()})
	}
	return w, nil
}

// replay streams every segment's frames (oldest first) through apply,
// assigning WAL sequences and recording each segment's sequence range.
// A torn or corrupt frame in the final segment is a crash tail: the
// file is truncated to the last good frame. In an earlier (sealed,
// fsynced-at-roll) segment it is disk corruption: the rest of that
// segment is skipped and replay continues.
func (w *wal) replay(apply func(f frame, seq uint64)) error {
	seq := uint64(0)
	for i := range w.segs {
		seg := &w.segs[i]
		path := filepath.Join(w.dir, segmentName(seg.id))
		final := i == len(w.segs)-1
		validEnd, err := replaySegment(path, func(f frame) {
			seq++
			if seg.minSeq == 0 {
				seg.minSeq = seq
			}
			seg.maxSeq = seq
			apply(f, seq)
		})
		if err != nil {
			return err
		}
		if validEnd < seg.size {
			if final {
				if err := os.Truncate(path, validEnd); err != nil {
					return fmt.Errorf("store: truncate torn tail: %w", err)
				}
				seg.size = validEnd
			} else {
				w.met.replaySkipped.Inc()
			}
		}
	}
	w.nextSeq = seq
	w.writtenSeq = seq
	w.ackedSeq = seq
	w.syncedSeq = seq
	w.rolledSeq = seq

	// The newest segment becomes the active one — unless it is already
	// over the roll size (or there is none), in which case start fresh.
	nextID := uint64(1)
	if n := len(w.segs); n > 0 {
		last := w.segs[n-1]
		nextID = last.id + 1
		if last.size < w.opts.SegmentBytes {
			f, err := os.OpenFile(filepath.Join(w.dir, segmentName(last.id)), os.O_RDWR, 0o644)
			if err != nil {
				return fmt.Errorf("store: open active segment: %w", err)
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				f.Close()
				return err
			}
			w.active = f
			w.activeID = last.id
			w.activeMin = last.minSeq
			w.activeSize.Store(last.size)
			w.segs = w.segs[:n-1]
		}
	}
	if w.active == nil {
		if err := w.openSegment(nextID); err != nil {
			return err
		}
	}
	w.met.segments.Set(int64(len(w.segs) + 1))
	return nil
}

// replaySegment reads frames from one segment file, returning the
// offset of the end of the last valid frame.
func replaySegment(path string, apply func(frame)) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: replay: %w", err)
	}
	return scanFrames(raw, func(body []byte) bool {
		f, err := decodeBody(body)
		if err != nil {
			return false // corrupt frame
		}
		apply(f)
		return true
	}), nil
}

// scanFrames walks the uvarint-length-prefixed frames in raw (the
// framing the WAL and the seed-format log share), handing each body to
// each, and returns the offset of the end of the last frame each
// accepted. It stops at a torn length, at a length larger than the
// bytes that remain — a torn body, or garbage no writer produced — and
// at the first body each rejects. Lengths are compared unsigned: a
// length of 2^63 or more must not wrap into a negative that passes.
func scanFrames(raw []byte, each func(body []byte) bool) int64 {
	off := 0
	for off < len(raw) {
		n, vn := binary.Uvarint(raw[off:])
		if vn <= 0 || n > uint64(len(raw)-off-vn) {
			break
		}
		end := off + vn + int(n)
		if !each(raw[off+vn : end]) {
			break
		}
		off = end
	}
	return int64(off)
}

func (w *wal) openSegment(id uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(id)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	w.active = f
	w.activeID = id
	w.activeMin = 0
	w.activeSize.Store(0)
	return nil
}

func (w *wal) start() { go w.run() }

// enqueue appends a frame to the commit queue and returns its sequence.
// Called with the owning shard's lock held, which makes the WAL order
// agree with the index order for any single key.
func (w *wal) enqueue(buf []byte) uint64 {
	w.queuedBytes.Add(int64(len(buf)))
	w.qmu.Lock()
	w.nextSeq++
	seq := w.nextSeq
	w.queue = append(w.queue, buf)
	w.qmu.Unlock()
	w.signal()
	return seq
}

// maxQueuedBytes bounds the frame bytes the commit queue may pin before
// writers fall back to blocking on their own frame (backpressure).
const maxQueuedBytes = 8 << 20

// ackWait reports whether a writer must block on its frame: always under
// SyncAlways (the ack IS the fsync), and under any policy once the
// committer falls maxQueuedBytes behind. Otherwise the enqueue itself is
// the acknowledgement — interval/never promise nothing a queued-but-
// unwritten frame would break, and skipping the wakeup round-trip is
// what lets group commit run at memory speed.
func (w *wal) ackWait() bool {
	return w.opts.Sync == SyncAlways || w.queuedBytes.Load() > maxQueuedBytes
}

// checkErr is the non-blocking probe fire-and-forget acks use to surface
// a sticky committer failure on the next operation.
func (w *wal) checkErr() error {
	if !w.errSet.Load() {
		return nil
	}
	w.wmu.Lock()
	err := w.err
	w.wmu.Unlock()
	return err
}

func (w *wal) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// wait blocks until the frame with the given sequence is acknowledged
// per the SyncPolicy (written for interval/never, fsynced for always).
func (w *wal) wait(seq uint64) error {
	w.wmu.Lock()
	for w.err == nil && w.ackedSeq < seq {
		w.cond.Wait()
	}
	err := w.err
	w.wmu.Unlock()
	return err
}

// syncBarrier requests an fsync covering every frame enqueued so far
// and waits for it. No index lock is held at any point.
func (w *wal) syncBarrier() error {
	w.qmu.Lock()
	target := w.nextSeq
	w.qmu.Unlock()
	w.wmu.Lock()
	if w.syncTarget < target {
		w.syncTarget = target
	}
	w.wmu.Unlock()
	w.signal()

	w.wmu.Lock()
	for w.err == nil && w.syncedSeq < target {
		w.cond.Wait()
	}
	err := w.err
	w.wmu.Unlock()
	return err
}

// forceRoll seals the active segment once every frame enqueued so far
// is written, so compaction can treat it as cold. Used by Compact.
func (w *wal) forceRoll() error {
	w.qmu.Lock()
	target := w.nextSeq
	w.qmu.Unlock()
	w.wmu.Lock()
	if w.rollTarget < target {
		w.rollTarget = target
	}
	w.wmu.Unlock()
	w.signal()

	w.wmu.Lock()
	for w.err == nil && w.rolledSeq < target {
		w.cond.Wait()
	}
	err := w.err
	w.wmu.Unlock()
	return err
}

func (w *wal) run() {
	defer close(w.done)
	var tickC <-chan time.Time
	if w.opts.Sync == SyncInterval {
		t := time.NewTicker(w.opts.SyncEvery)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-w.wake:
			w.step()
		case <-tickC:
			w.wmu.Lock()
			if w.syncTarget < w.nextSeqLocked() {
				w.syncTarget = w.nextSeqLocked()
			}
			w.wmu.Unlock()
			w.step()
		case <-w.stopc:
			w.step() // drain whatever raced the stop
			w.shutdown()
			return
		}
	}
}

func (w *wal) nextSeqLocked() uint64 {
	w.qmu.Lock()
	n := w.nextSeq
	w.qmu.Unlock()
	return n
}

// step is one committer turn: drain the queue into one write, fsync per
// policy or pending request, seal the segment if due, wake waiters.
func (w *wal) step() {
	w.qmu.Lock()
	batch := w.queue
	w.queue = nil
	w.qmu.Unlock()

	var failed error
	if len(batch) > 0 {
		failed = w.writeBatch(batch)
	}

	w.wmu.Lock()
	syncWanted := w.syncTarget > w.syncedSeq
	rollWanted := w.rollTarget > w.rolledSeq
	w.wmu.Unlock()

	if failed == nil && (w.opts.Sync == SyncAlways && len(batch) > 0 || syncWanted) {
		failed = w.fsync()
	}
	if failed == nil && rollWanted {
		if w.activeSize.Load() > 0 {
			failed = w.seal()
		}
		w.wmu.Lock()
		w.rolledSeq = w.writtenSeq
		w.wmu.Unlock()
	}

	w.wmu.Lock()
	if failed != nil && w.err == nil {
		w.err = failed
		w.errSet.Store(true)
	}
	if w.err == nil {
		w.ackedSeq = w.writtenSeq
	}
	w.cond.Broadcast()
	w.wmu.Unlock()
}

// writeBatch concatenates the batch into as few writes as segment rolls
// allow: the longest prefix that fits the active segment goes out as one
// write, the segment seals, and the remainder re-splits against the
// fresh one. A batch can exceed SegmentBytes now that writers don't
// block per frame.
func (w *wal) writeBatch(batch [][]byte) error {
	for len(batch) > 0 {
		active := w.activeSize.Load()
		total, n := 0, 0
		for _, b := range batch {
			if n > 0 && active+int64(total)+int64(len(b)) > w.opts.SegmentBytes {
				break // at least one frame always lands, even oversized
			}
			total += len(b)
			n++
		}
		if active > 0 && active+int64(total) > w.opts.SegmentBytes {
			if err := w.seal(); err != nil {
				return err
			}
			continue // re-split against the empty segment
		}
		buf := w.batchBuf[:0]
		for _, b := range batch[:n] {
			buf = append(buf, b...)
		}
		w.batchBuf = buf
		_, err := w.active.Write(buf)
		w.queuedBytes.Add(-int64(total)) // written (or sticky-failed): no longer pinned
		if err != nil {
			return fmt.Errorf("store: wal write: %w", err)
		}
		if w.activeMin == 0 {
			w.activeMin = w.writtenSeq + 1
		}
		w.writtenSeq += uint64(n)
		w.activeSize.Add(int64(total))
		w.met.batchFrames.Observe(time.Duration(n))
		w.met.walBytes.Add(int64(total))
		batch = batch[n:]
	}
	return nil
}

// fsync flushes the blob log first (a WAL blob reference must never be
// durable before its bytes), then the active segment.
func (w *wal) fsync() error {
	if h := w.testHookFsync.Load(); h != nil {
		(*h)()
	}
	start := time.Now()
	if err := w.blobs.sync(); err != nil {
		return err
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	w.met.fsyncs.Inc()
	w.met.fsyncWait.Observe(time.Since(start))
	w.wmu.Lock()
	w.syncedSeq = w.writtenSeq
	w.wmu.Unlock()
	return nil
}

// seal fsyncs and closes the active segment, records it as cold, and
// opens the next one. Sealed segments are always fully synced, so only
// the active segment can hold a torn tail.
func (w *wal) seal() error {
	if err := w.fsync(); err != nil {
		return err
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: seal: %w", err)
	}
	info := segmentInfo{id: w.activeID, size: w.activeSize.Load(), minSeq: w.activeMin, maxSeq: w.writtenSeq}
	w.segMu.Lock()
	w.segs = append(w.segs, info)
	nseg := len(w.segs)
	w.segMu.Unlock()
	w.met.segments.Set(int64(nseg + 1))
	return w.openSegment(w.activeID + 1)
}

// sealedSegments snapshots the cold segment list, oldest first.
func (w *wal) sealedSegments() []segmentInfo {
	w.segMu.Lock()
	defer w.segMu.Unlock()
	return append([]segmentInfo(nil), w.segs...)
}

// removeSegment deletes a compacted segment's file and bookkeeping.
func (w *wal) removeSegment(id uint64) error {
	w.segMu.Lock()
	for i := range w.segs {
		if w.segs[i].id == id {
			w.segs = append(w.segs[:i], w.segs[i+1:]...)
			break
		}
	}
	nseg := len(w.segs)
	w.segMu.Unlock()
	w.met.segments.Set(int64(nseg + 1))
	if err := os.Remove(filepath.Join(w.dir, segmentName(id))); err != nil {
		return fmt.Errorf("store: remove segment: %w", err)
	}
	return nil
}

func (w *wal) diskUsage() int64 {
	n := w.activeSize.Load()
	w.segMu.Lock()
	for _, s := range w.segs {
		n += s.size
	}
	w.segMu.Unlock()
	return n
}

// shutdown drains any late enqueues, performs a final flush, fails any
// waiters that raced the close, and releases the file.
func (w *wal) shutdown() {
	w.qmu.Lock()
	batch := w.queue
	w.queue = nil
	w.qmu.Unlock()
	var failed error
	if len(batch) > 0 {
		failed = w.writeBatch(batch)
	}
	if failed == nil {
		failed = w.fsync()
	}
	if cerr := w.active.Close(); failed == nil && cerr != nil {
		failed = cerr
	}
	w.wmu.Lock()
	if w.err == nil {
		if failed != nil {
			w.err = failed
		} else {
			w.ackedSeq = w.writtenSeq
			w.syncedSeq = w.writtenSeq
			w.rolledSeq = w.writtenSeq
			w.err = ErrClosed // fail any waiter that enqueued after the final drain
		}
	}
	w.errSet.Store(true)
	w.cond.Broadcast()
	w.wmu.Unlock()
}

// close stops the committer and waits for the final flush. The first
// call wins; the sticky error state reports any flush failure.
func (w *wal) close() error {
	close(w.stopc)
	<-w.done
	w.wmu.Lock()
	err := w.err
	w.wmu.Unlock()
	if errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}
