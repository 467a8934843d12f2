package main

import (
	"context"
	"fmt"

	"mdagent/internal/cluster"
)

// followmeBench is followme-roundtrip and followme-static-cold.
type followmeBench struct {
	*followme
}

func openFollowme(static bool) func(context.Context, *deployment, *recorder, int64) (bench, error) {
	// The seed changes nothing here: the operation has no free input. The
	// application, its 2 MB song and the ring of hosts are the workload.
	return func(_ context.Context, dep *deployment, rec *recorder, _ int64) (bench, error) {
		f, err := newFollowme(dep, rec, static)
		if err != nil {
			return nil, err
		}
		return followmeBench{f}, nil
	}
}

func (b followmeBench) warmOps() int {
	if b.static {
		return 6 // two laps of the ring
	}
	return 10
}

func (b followmeBench) beginTraced(context.Context) error {
	b.drain()
	return nil
}

func (b followmeBench) layers(ctx context.Context, _ windowResult, m metrics) error {
	b.layer(m)
	if err := infoRTT(ctx, b.clis[0], b.rec, m); err != nil {
		return err
	}
	return b.agentProbes(ctx, m)
}

func (b followmeBench) finish(ctx context.Context) (windowResult, error) {
	return windowResult{}, b.checkPlacement(ctx)
}

// sessionBench is what session-quorum and restore-read share: the
// sessions and the marks of the traced window.
type sessionBench struct {
	s    *sessions
	from sessionMark
}

func openSessions(ctx context.Context, dep *deployment, rec *recorder, seed int64, chain int) (*sessions, error) {
	s, err := newSessions(dep, rec, seed)
	if err != nil {
		return nil, err
	}
	if err := s.preload(ctx, chain); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (b *sessionBench) beginTraced(ctx context.Context) (err error) {
	b.from, err = b.s.mark(ctx)
	return err
}

func (b *sessionBench) close() { b.s.close() }

// quorumBench is session-quorum.
type quorumBench struct {
	sessionBench
	*quorumDriver
}

func openQuorum(ctx context.Context, dep *deployment, rec *recorder, seed int64) (bench, error) {
	s, err := openSessions(ctx, dep, rec, seed, 0)
	if err != nil {
		return nil, err
	}
	return &quorumBench{sessionBench{s: s}, newQuorumDriver(s)}, nil
}

func (b *quorumBench) warmOps() int { return 200 }

func (b *quorumBench) layers(ctx context.Context, traced windowResult, m metrics) error {
	if err := b.s.writeLayer(ctx, b.from, traced.attempted, m); err != nil {
		return err
	}
	if err := infoRTT(ctx, b.s.ctls[0], b.s.rec, m); err != nil {
		return err
	}
	if err := b.s.restorePass(ctx, m); err != nil {
		return err
	}
	return b.s.putProbes(ctx, m)
}

// finish requires that no put fell short of its quorum, that the
// watchers account for every event, and that all three centers hold the
// sampled sessions durably.
func (b *quorumBench) finish(ctx context.Context) (windowResult, error) {
	_, bg := b.s.background()
	st := b.s.repl.Stats()
	if st.NotDurable != 0 {
		return bg, fmt.Errorf("%d puts fell short of quorum", st.NotDurable)
	}
	if err := b.s.settle(); err != nil {
		return bg, err
	}
	return bg, b.s.verify(ctx, true)
}

// restoreBench is restore-read.
type restoreBench struct {
	sessionBench
	*restoreDriver
}

func openRestore(ctx context.Context, dep *deployment, rec *recorder, seed int64) (bench, error) {
	s, err := openSessions(ctx, dep, rec, seed, restoreChain)
	if err != nil {
		return nil, err
	}
	s.startBackground(ctx)
	return &restoreBench{sessionBench{s: s}, newRestoreDriver(s)}, nil
}

func (b *restoreBench) warmOps() int { return 200 }

func (b *restoreBench) layers(ctx context.Context, _ windowResult, m metrics) error {
	if err := b.s.readLayer(ctx, b.from, m); err != nil {
		return err
	}
	if err := infoRTT(ctx, b.s.ctls[0], b.s.rec, m); err != nil {
		return err
	}
	b.s.stopBackground()
	if err := b.s.quorumPass(ctx, m); err != nil {
		return err
	}
	return b.s.putProbes(ctx, m)
}

func (b *restoreBench) finish(ctx context.Context) (windowResult, error) {
	b.s.stopBackground()
	_, bg := b.s.background()
	if err := b.s.settle(); err != nil {
		return bg, err
	}
	// The background writer's puts are asynchronous, so the records need
	// not be marked durable; they must still be the state last written.
	return bg, b.s.verify(ctx, false)
}

// quorumPass runs a short traced pass of session-quorum's loop and
// reports the write-path layers over it.
func (s *sessions) quorumPass(ctx context.Context, m metrics) error {
	s.pub.setConcern(cluster.WriteQuorum)
	from, err := s.mark(ctx)
	if err != nil {
		return err
	}
	res := runOps(ctx, newQuorumDriver(s), sideQuorumWrites)
	if res.failed > 0 {
		return fmt.Errorf("quorum pass: %w", res.failure())
	}
	return s.writeLayer(ctx, from, res.attempted, m)
}

// restorePass runs a short traced pass of restore-read's loop, with its
// background writer, and reports the read-path layers over it.
func (s *sessions) restorePass(ctx context.Context, m metrics) error {
	s.startBackground(ctx)
	defer s.pub.setConcern(cluster.WriteQuorum)
	defer s.stopBackground()
	from, err := s.mark(ctx)
	if err != nil {
		return err
	}
	res := runOps(ctx, newRestoreDriver(s), sideRestoreReads)
	if res.failed > 0 {
		return fmt.Errorf("restore pass: %w", res.failure())
	}
	return s.readLayer(ctx, from, m)
}
