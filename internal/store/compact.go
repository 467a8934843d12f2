package store

import "path/filepath"

// Compact folds every cold WAL segment into the tail, one segment at a
// time, then garbage-collects unreferenced blob segments. The write
// path is never blocked for a whole pass: for each key whose live entry
// still lives in the segment being compacted, the entry is re-emitted to
// the WAL under the index lock, one key at a time. Staleness is
// version-checked — an entry is re-emitted only if its WAL sequence
// falls inside the segment's range, so a concurrent overwrite (which
// lands in a newer segment) wins and the stale re-emit is simply
// skipped.
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
	// Seal the active segment so everything written so far is cold.
	// Re-emits land in the fresh tail, which is not in this snapshot.
	if err := s.wal.forceRoll(); err != nil {
		return err
	}
	for _, seg := range s.wal.sealedSegments() {
		if err := s.compactSegment(seg); err != nil {
			return err
		}
	}
	if err := s.blobGC(); err != nil {
		return err
	}
	s.deadBytes.Store(0)
	s.met.compactions.Inc()
	return nil
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

// compactSegment re-emits the live entries whose defining frames are in
// seg, syncs them, and unlinks the segment.
func (s *Store) compactSegment(seg segmentInfo) error {
	path := filepath.Join(s.dir, segmentName(seg.id))
	seen := make(map[string]struct{})
	var keys []string
	if _, err := replaySegment(path, func(f frame) {
		if _, ok := seen[f.key]; !ok {
			seen[f.key] = struct{}{}
			keys = append(keys, f.key)
		}
	}); err != nil {
		return err
	}
	for _, key := range keys {
		s.mu.Lock()
		e, ok := s.m[key]
		if ok && e.seq >= seg.minSeq && e.seq <= seg.maxSeq {
			var frame []byte
			if e.kind == entryBlob {
				frame = encodeBlobFrame(key, e.blob)
			} else {
				vlen := len(e.val)
				var voff int
				frame, voff = encodeInlineFrame(key, e.val)
				// Re-point the index at the fresh frame so the old
				// segment's replay buffer can be released.
				e.val = frame[voff : voff+vlen : voff+vlen]
			}
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

// blobGC deletes sealed blob segments with no surviving index
// references. New references only ever target the active blob segment,
// so a sealed segment observed unreferenced stays unreferenced.
func (s *Store) blobGC() error {
	candidates := s.blobs.sealedIDs()
	if len(candidates) == 0 {
		return nil
	}
	live := make(map[uint64]bool)
	s.mu.RLock()
	for _, e := range s.m {
		if e.kind == entryBlob {
			live[e.blob.Seg] = true
		}
	}
	s.mu.RUnlock()
	for _, id := range candidates {
		if !live[id] {
			if err := s.blobs.removeSegment(id); err != nil {
				return err
			}
		}
	}
	return nil
}
