package store

import (
	"path/filepath"

	"mdagent/internal/obs"
)

// metrics pins the engine's mdagent_store_* series at construction so
// hot paths pay one atomic op per event. Stores are labeled by the base
// name of their directory; stores sharing a directory name share series.
type metrics struct {
	puts *obs.Counter
	gets *obs.Counter
	dels *obs.Counter

	putWait       *obs.Histogram // Put call latency (enqueue -> ack)
	batchFrames   *obs.Histogram // group-commit batch size, frames (unit ns = 1 frame)
	walBytes      *obs.Counter   // bytes appended to the WAL
	fsyncs        *obs.Counter
	fsyncWait     *obs.Histogram // WAL fsync latency
	segments      *obs.Gauge     // WAL segments incl. active
	compactions   *obs.Counter
	replaySkipped *obs.Counter // frames dropped at replay (corrupt sealed segments, unreadable blob refs)
}

func newMetrics(dir string) *metrics {
	label := filepath.Base(dir)
	r := obs.Default
	return &metrics{
		puts:          r.Counter("mdagent_store_puts_total", "dir", label),
		gets:          r.Counter("mdagent_store_gets_total", "dir", label),
		dels:          r.Counter("mdagent_store_deletes_total", "dir", label),
		putWait:       r.Histogram("mdagent_store_put_wait_seconds", "dir", label),
		batchFrames:   r.Histogram("mdagent_store_commit_batch_frames", "dir", label),
		walBytes:      r.Counter("mdagent_store_wal_bytes_total", "dir", label),
		fsyncs:        r.Counter("mdagent_store_fsyncs_total", "dir", label),
		fsyncWait:     r.Histogram("mdagent_store_fsync_seconds", "dir", label),
		segments:      r.Gauge("mdagent_store_segments", "dir", label),
		compactions:   r.Counter("mdagent_store_compactions_total", "dir", label),
		replaySkipped: r.Counter("mdagent_store_replay_skipped_total", "dir", label),
	}
}
