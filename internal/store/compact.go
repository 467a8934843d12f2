package store

import (
	"cmp"
	"slices"
	"sort"
)

// Compact folds every cold WAL segment into the tail, one segment at a
// time. The write path is never blocked for a whole pass: for each key
// whose live entry still lives in the segment being compacted, the
// entry is re-emitted to the WAL under the index lock, one key at a
// time. A pass never reads a segment file: one walk of the index finds
// each segment's live keys, because an entry's WAL sequence falls inside
// the sequence range of the segment that holds its frame. Staleness is
// version-checked at the re-emit — an entry is re-emitted only if its
// sequence still falls inside the segment's range, so a concurrent
// overwrite (which lands in a newer segment) wins and the stale re-emit
// is simply skipped.
//
// Segments are processed oldest-first, which makes dropping tombstones
// safe: when the oldest segment is compacted, any put a tombstone in it
// was masking has already been dropped with an older segment.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	// Every superseded frame counted so far was enqueued before the roll
	// below, so this pass reclaims it; what writers supersede while the
	// pass runs lies in the fresh tail and stays counted.
	dead := s.deadBytes.Load()
	// Seal the active segment so everything written so far is cold.
	// Re-emits land in the fresh tail, which is not in this snapshot.
	if err := s.wal.forceRoll(); err != nil {
		return err
	}
	segs := s.wal.sealedSegments()
	live := s.liveKeysBySegment(segs)
	for i, seg := range segs {
		if err := s.compactSegment(seg, live[i]); err != nil {
			return err
		}
	}
	s.deadBytes.Add(-dead)
	s.met.compactions.Inc()
	return nil
}

// liveKeysBySegment walks the index once and returns, for each of segs
// (oldest first, as sealedSegments lists them), the keys whose live
// entry was defined by a frame in that segment, in the order their
// frames were written, so a pass re-emits them in the log's own order
// and not the map's. Entries newer than the last sealed segment are in
// the tail and are left out.
func (s *Store) liveKeysBySegment(segs []segmentInfo) [][]string {
	// The segments' sequence ranges ascend and are disjoint; a segment
	// no frame was applied from (minSeq 0) has none and is left out of
	// the search.
	var held []int
	for i, seg := range segs {
		if seg.minSeq != 0 {
			held = append(held, i)
		}
	}
	type liveKey struct {
		key string
		seq uint64
	}
	bySeg := make([][]liveKey, len(segs))
	s.mu.RLock()
	for k, e := range s.m {
		j := sort.Search(len(held), func(j int) bool { return segs[held[j]].maxSeq >= e.seq })
		if j < len(held) && segs[held[j]].minSeq <= e.seq {
			bySeg[held[j]] = append(bySeg[held[j]], liveKey{k, e.seq})
		}
	}
	s.mu.RUnlock()
	live := make([][]string, len(segs))
	for i, lks := range bySeg {
		slices.SortFunc(lks, func(a, b liveKey) int { return cmp.Compare(a.seq, b.seq) })
		live[i] = make([]string, len(lks))
		for j, lk := range lks {
			live[i][j] = lk.key
		}
	}
	return live
}

// maybeAutoCompact starts a background compaction pass when the
// estimated superseded bytes cross the configured threshold AND make up
// a meaningful share of the on-disk bytes. The second condition bounds
// write amplification under churn-heavy load: without it, a workload
// that overwrites large values continuously re-triggers compaction and
// each pass force-rolls and fsyncs the WAL, turning a SyncNever store
// disk-bound. One pass at a time; the no-op path is two atomic loads.
func (s *Store) maybeAutoCompact() {
	if s.opts.compactMinDead < 0 {
		return
	}
	dead := s.deadBytes.Load()
	if dead < s.opts.compactMinDead {
		return
	}
	if dead < s.DiskUsage()/2 {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		if s.closed.Load() {
			return
		}
		_ = s.Compact() // failure leaves segments in place; sticky WAL errors surface on writes
	}()
}

// compactSegment re-emits the live entries of keys whose defining
// frames are still in seg, syncs them, and unlinks the segment.
func (s *Store) compactSegment(seg segmentInfo, keys []string) error {
	for _, key := range keys {
		s.mu.Lock()
		e, ok := s.m[key]
		if ok && e.seq >= seg.minSeq && e.seq <= seg.maxSeq {
			vlen := len(e.val)
			frame, voff := encodeInlineFrame(key, e.val)
			// Re-point the index at the fresh frame so the old
			// segment's replay buffer can be released.
			e.val = frame[voff : voff+vlen : voff+vlen]
			e.seq = s.wal.enqueue(frame)
			s.m[key] = e
		}
		s.mu.Unlock()
	}
	// The re-emitted frames must be durable before their old home goes.
	if err := s.wal.syncBarrier(); err != nil {
		return err
	}
	return s.wal.removeSegment(seg.id)
}
