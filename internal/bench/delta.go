package bench

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
)

// DeltaPoint is one app-size cell of the delta sweep: a media player
// whose song dominates its wrap, mutated by one small playback-position
// write per capture tick. BaseBytes is what shipping the whole wrap
// costs — the price of every tick before the delta pipeline — so
// BaseBytes/BytesPerTick is the saving.
type DeltaPoint struct {
	SongBytes int64
	Ticks     int // mutated capture rounds after the initial base

	Publishes    int64
	FullFrames   int64
	DeltaFrames  int64
	BaseBytes    int64 // bytes of the initial base publish (one full frame)
	TotalBytes   int64 // all bytes put to the center across the run
	BytesPerTick int64 // steady-state replicated bytes per mutated tick
	SkippedClean int64 // idle ticks skipped with zero serialization
	StateIntact  bool  // peer-center record reassembles to the live value
	ChainLen     int   // delta chain length on the peer record at the end
}

// deltaSweepConfig is the cluster config the sweep runs at: state
// replication on, the periodic loop effectively disabled (captures are
// driven manually by SyncNow, which is never paced, for determinism).
func deltaSweepConfig() cluster.Config {
	return cluster.Config{
		ReplicateState:    true,
		ReplicateInterval: time.Hour,
		Seed:              13,
	}
}

// RunDeltaSweep measures replicated bytes per capture tick as app size
// grows. Each cell builds a 2-space federation, runs the player with a
// song of the given size on the first host, publishes the base, then
// performs ticks rounds of (small state mutation, synchronous capture),
// followed by a few idle rounds.
// The final record is pulled from the peer space's center and
// value-checked against the live state — the same record failover would
// restore from.
func RunDeltaSweep(sizes []int64, ticks int) ([]DeltaPoint, error) {
	if ticks <= 0 {
		return nil, fmt.Errorf("bench: delta sweep needs >= 1 tick, got %d", ticks)
	}
	var out []DeltaPoint
	for _, size := range sizes {
		p, err := runDeltaCell(size, ticks)
		if err != nil {
			return nil, fmt.Errorf("bench: delta cell %d: %w", size, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func runDeltaCell(songBytes int64, ticks int) (DeltaPoint, error) {
	p := DeltaPoint{SongBytes: songBytes, Ticks: ticks}
	mw, hosts, err := newFederation(2, deltaSweepConfig())
	if err != nil {
		return p, err
	}
	defer mw.Close()

	host := hosts[0]
	rt, _ := mw.Host(host)
	song := media.GenerateFile("song1", songBytes, 3)
	rt.Library.Add(song)
	if err := mw.RunApp(context.Background(), host, demoapps.NewMediaPlayer(host, song)); err != nil {
		return p, err
	}
	inst, ok := rt.Engine.App("smart-media-player")
	if !ok {
		return p, fmt.Errorf("player not running on %s", host)
	}
	st, ok := inst.Component("playback-state")
	if !ok {
		return p, fmt.Errorf("player has no playback-state component")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep := rt.Replicator
	if rep == nil {
		return p, fmt.Errorf("host %s has no replicator", host)
	}
	// Base publish.
	if err := rep.SyncNow(ctx); err != nil {
		return p, err
	}
	base := rep.Stats()
	p.BaseBytes = base.BytesPublished

	// Steady state: one small mutation per capture tick.
	var last string
	for i := 0; i < ticks; i++ {
		last = strconv.Itoa(30000 + i)
		st.(*app.StateComponent).Set("positionMs", last)
		inst.Coordinator().Set("positionMs", last)
		if err := rep.SyncNow(ctx); err != nil {
			return p, err
		}
	}
	// Idle tail: unchanged app, must cost nothing.
	for i := 0; i < 3; i++ {
		if err := rep.SyncNow(ctx); err != nil {
			return p, err
		}
	}

	s := rep.Stats()
	p.Publishes = s.Publishes
	p.FullFrames = s.FullFrames
	p.DeltaFrames = s.DeltaFrames
	p.TotalBytes = s.BytesPublished
	p.BytesPerTick = (s.BytesPublished - base.BytesPublished) / int64(ticks)
	p.SkippedClean = s.SkippedClean - base.SkippedClean

	// Value-level check against the PEER space's center — the copy
	// failover on a surviving space would restore from.
	peer, ok := mw.Cluster.Center("space-2")
	if !ok {
		return p, fmt.Errorf("no peer center")
	}
	if err := peer.SyncNow(ctx); err != nil {
		return p, err
	}
	rec, ok := peer.LatestSnapshot("smart-media-player")
	if !ok {
		return p, fmt.Errorf("snapshot never reached the peer center")
	}
	p.ChainLen = len(rec.Deltas)
	ts, err := rec.Snapshot()
	if err != nil {
		return p, err
	}
	check := app.New("smart-media-player", "check", demoapps.MediaPlayerDesc())
	if err := check.Unwrap(ts.Wrap); err != nil {
		return p, err
	}
	cs, ok := check.Component("playback-state")
	if ok {
		v, _ := cs.(*app.StateComponent).Get("positionMs")
		cv, _ := check.Coordinator().Get("positionMs")
		p.StateIntact = v == last && cv == last
	}
	return p, nil
}
