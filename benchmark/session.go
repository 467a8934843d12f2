package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

const (
	sessionCount = 64
	// sessionBlob sizes a session's data component so that its base
	// frame lands just over the store's default 64 KiB blob threshold:
	// snapshot records take the blob-log path, as a real session's would.
	sessionBlob     = 64 << 10
	sampledSessions = 16
	quorumWriters   = 2
	watchSinks      = 2
	benchHost       = "benchhost"
	// restoreChain is the delta chain every session is preloaded with on
	// restore-read: reassembly cost depends on chain length, so the read
	// workload starts every run from the same one.
	restoreChain = 4
	// bgWriteEvery paces restore-read's background writer: 100 puts/s.
	bgWriteEvery = 10 * time.Millisecond
)

// timingPublisher is the state.Publisher the benchmark's replicators
// write to: cluster.SnapshotClient with a span around every put, so
// Replicator.Capture's span has its network half as a child.
type timingPublisher struct {
	inner *cluster.SnapshotClient
	rec   *recorder
	// events counts puts that made the center publish a cluster.durable
	// or cluster.degraded event: every put under a synchronous concern
	// the center answered.
	events atomic.Int64
	sync   atomic.Bool
}

func (p *timingPublisher) setConcern(wc cluster.WriteConcern) {
	p.inner.SetWriteConcern(wc)
	p.sync.Store(wc != cluster.WriteAsync)
}

func (p *timingPublisher) PutSnapshot(ctx context.Context, put state.SnapshotPut) (state.SnapshotStamp, error) {
	ref := spanFrom(ctx)
	sp := p.rec.begin("cluster.PutSnapshot", ref.id, ref.op)
	stamp, err := p.inner.PutSnapshot(ctx, put)
	p.rec.end(sp)
	if p.sync.Load() && (err == nil || errors.Is(err, state.ErrNotDurable)) {
		p.events.Add(1)
	}
	return stamp, err
}

func (p *timingPublisher) DropSnapshot(ctx context.Context, appName, host string) error {
	return p.inner.DropSnapshot(ctx, appName, host)
}

// watcher is one passive ctl.Watch sink on lab1.
type watcher struct {
	node   *transport.TCPNode
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	delivered int64
	lost      int64
	lags      []time.Duration // event At -> receipt, same host clock
}

func startWatcher(i int, center *proc) (*watcher, error) {
	node, err := transport.ListenTCP(fmt.Sprintf("bench-watch-%d", i), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	name := cluster.CenterEndpointName(center.name)
	node.AddPeer(name, center.addr)
	ctx, cancel := context.WithCancel(context.Background())
	events, err := ctl.NewClient(node.Endpoint(), name).Watch(ctx, "cluster.*")
	if err != nil {
		cancel()
		node.Close()
		return nil, fmt.Errorf("watch %s: %w", center.name, err)
	}
	w := &watcher{node: node, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for ev := range events {
			lag := time.Since(ev.Event.At)
			w.mu.Lock()
			w.delivered++
			w.lost += int64(ev.Lost)
			w.lags = append(w.lags, lag)
			w.mu.Unlock()
		}
	}()
	return w, nil
}

func (w *watcher) close() {
	w.cancel()
	<-w.done
	w.node.Close()
}

func (w *watcher) counts() (delivered, lost int64, lags int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.delivered, w.lost, len(w.lags)
}

// sessions is the benchmark playing a host: a set of applications whose
// state it replicates to lab1 through state.Replicator, exactly as
// mdagentd's replicator would.
type sessions struct {
	node     *transport.TCPNode
	rec      *recorder
	centers  []*proc
	seed     int64
	insts    []*app.Application
	cursors  []*app.StateComponent
	pub      *timingPublisher
	repl     *state.Replicator
	cat      *registry.Client
	ctls     []*ctl.Client // one per center
	watchers []*watcher
	storeDir string // lab1's store directory

	bgStop chan struct{}
	bgDone chan struct{}
	bgMu   sync.Mutex
	bgLate []time.Duration
	bgRes  windowResult
}

func sessionName(i int) string { return fmt.Sprintf("session-%02d", i) }

// sessionDesc is the smallest description the registry accepts.
func sessionDesc(name string) wsdl.Description {
	return wsdl.Description{Name: name, Provider: "benchmark", Version: "1.0",
		Services: []wsdl.Service{{Name: name + "-svc", Ports: []wsdl.Port{{Name: "ctl",
			Operations: []wsdl.Operation{{Name: "seek", Input: "cursor", Output: "status"}}}}}}}
}

func newSessions(dep *deployment, rec *recorder, seed int64) (_ *sessions, err error) {
	node, err := transport.ListenTCP("bench-host", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sessions{node: node, rec: rec, centers: dep.centers, seed: seed,
		storeDir: filepath.Join(dep.dir, dep.centers[0].name)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for _, c := range dep.centers {
		name := cluster.CenterEndpointName(c.name)
		node.AddPeer(name, c.addr)
		s.ctls = append(s.ctls, ctl.NewClient(node.Endpoint(), name))
	}
	lab1 := cluster.CenterEndpointName(dep.centers[0].name)
	s.cat = registry.NewClient(node.Endpoint(), lab1)
	s.pub = &timingPublisher{inner: cluster.NewSnapshotClient(node.Endpoint(), lab1), rec: rec}
	s.pub.setConcern(cluster.WriteQuorum)

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sessionCount; i++ {
		blob := make([]byte, sessionBlob)
		rng.Read(blob)
		inst := app.New(sessionName(i), benchHost, sessionDesc(sessionName(i)))
		cursor := app.NewState("cursor")
		cursor.Set("cursor", "0")
		for _, c := range []app.Component{app.NewBlob("data", app.KindData, blob), cursor} {
			if err := inst.AddComponent(c); err != nil {
				return nil, err
			}
		}
		s.insts = append(s.insts, inst)
		s.cursors = append(s.cursors, cursor)
	}
	// The replicator is never started: every capture is an explicit
	// Replicator.Capture call, which is what the workloads time.
	s.repl = state.NewReplicator(benchHost, dep.centers[0].name,
		func() []*app.Application { return s.insts }, s.pub, nil, time.Hour, state.Tuning{})
	for i := 0; i < watchSinks; i++ {
		w, err := startWatcher(i, dep.centers[0])
		if err != nil {
			return nil, err
		}
		s.watchers = append(s.watchers, w)
	}
	return s, nil
}

func (s *sessions) close() {
	s.stopBackground()
	for _, w := range s.watchers {
		w.close()
	}
	s.node.Close()
}

// write moves session i's cursor and replicates the change: one durable
// session write. The value never repeats, so every call must publish.
func (s *sessions) write(ctx context.Context, i int, op int64, value string, parent int) error {
	ctx, cancel := withTimeout(ctx)
	defer cancel()
	s.cursors[i].Set("cursor", value)
	sp := s.rec.begin("state.Capture", parent, op)
	err := s.repl.Capture(withSpan(ctx, sp, op), s.insts[i])
	s.rec.end(sp)
	return err
}

// preload publishes every session's base frame and then chain deltas on
// top of each, and registers an installation record per session for the
// registry lookups of restore-read.
func (s *sessions) preload(ctx context.Context, chain int) error {
	for i := range s.insts {
		for k := 0; k <= chain; k++ {
			if err := s.write(ctx, i, 0, fmt.Sprintf("preload-%d", k), -1); err != nil {
				return fmt.Errorf("preload %s: %w", sessionName(i), err)
			}
		}
		rctx, cancel := withTimeout(ctx)
		err := s.cat.RegisterApp(rctx, registry.AppRecord{Name: sessionName(i), Host: benchHost,
			Space: s.centers[0].name, Description: s.insts[i].Description(),
			Components: s.insts[i].Components(), Running: true})
		cancel()
		if err != nil {
			return fmt.Errorf("register %s: %w", sessionName(i), err)
		}
	}
	want := int64(sessionCount * (chain + 1))
	if st := s.repl.Stats(); st.Publishes != want || st.NotDurable != 0 {
		return fmt.Errorf("preload published %d frames (%d not durable), want %d", st.Publishes, st.NotDurable, want)
	}
	return nil
}

// quorumDriver is session-quorum's closed loop: writers on one
// connection, each owning every quorumWriters-th session.
type quorumDriver struct {
	sess  *sessions
	ops   atomic.Int64
	order [quorumWriters][]int
	rngs  [quorumWriters]*rand.Rand
	next  [quorumWriters]int
}

func newQuorumDriver(s *sessions) *quorumDriver {
	d := &quorumDriver{sess: s}
	for w := range d.order {
		d.rngs[w] = rand.New(rand.NewSource(s.seed + int64(w) + 1))
		for i := w; i < sessionCount; i += quorumWriters {
			d.order[w] = append(d.order[w], i)
		}
		d.rngs[w].Shuffle(len(d.order[w]), func(a, b int) {
			d.order[w][a], d.order[w][b] = d.order[w][b], d.order[w][a]
		})
	}
	return d
}

func (d *quorumDriver) workers() int { return quorumWriters }

func (d *quorumDriver) op(ctx context.Context, w int) (time.Duration, error) {
	i := d.order[w][d.next[w]%len(d.order[w])]
	d.next[w]++
	op := d.ops.Add(1)
	sp := d.sess.rec.begin("op", -1, op)
	defer d.sess.rec.end(sp)
	return 0, d.sess.write(ctx, i, op, fmt.Sprintf("%d-%d", op, d.rngs[w].Int63()), sp)
}

// restoreDriver is restore-read's closed loop: one reader doing the
// failover restore fetch against lab1, then the registry lookup a
// relaunch would follow it with.
type restoreDriver struct {
	sess  *sessions
	lab1  string
	ops   int64
	order []int
}

func newRestoreDriver(s *sessions) *restoreDriver {
	d := &restoreDriver{sess: s, lab1: cluster.CenterEndpointName(s.centers[0].name)}
	d.order = rand.New(rand.NewSource(s.seed + 100)).Perm(sessionCount)
	return d
}

func (d *restoreDriver) workers() int { return 1 }

func (d *restoreDriver) op(ctx context.Context, _ int) (time.Duration, error) {
	i := d.order[d.ops%sessionCount]
	d.ops++
	ctx, cancel := withTimeout(ctx)
	defer cancel()
	rec := d.sess.rec
	sp := rec.begin("op", -1, d.ops)
	defer rec.end(sp)

	// A fresh client holds no earlier copy, so the center sends the whole
	// record: the fetch a host makes when it restores another's session.
	cli := cluster.NewSnapshotClient(d.sess.node.Endpoint(), d.lab1)
	c := rec.begin("cluster.LatestSnapshot", sp, d.ops)
	snap, found, err := cli.LatestSnapshot(ctx, sessionName(i))
	rec.end(c)
	if err != nil || !found {
		return 0, fmt.Errorf("fetch %s: found=%v: %w", sessionName(i), found, err)
	}
	c = rec.begin("state.Snapshot", sp, d.ops)
	ts, err := snap.Snapshot()
	rec.end(c)
	if err != nil {
		return 0, fmt.Errorf("reassemble %s: %w", sessionName(i), err)
	}
	c = rec.begin("state.WrapDigest", sp, d.ops)
	digest := state.WrapDigest(ts.Wrap)
	rec.end(c)
	if digest != snap.StateDigest {
		return 0, fmt.Errorf("%s reassembled to a state other than the record's digest", sessionName(i))
	}
	c = rec.begin("registry.LookupApp", sp, d.ops)
	_, found, err = d.sess.cat.LookupApp(ctx, sessionName(i), benchHost)
	rec.end(c)
	if err != nil || !found {
		return 0, fmt.Errorf("lookup %s: found=%v: %w", sessionName(i), found, err)
	}
	return 0, nil
}

// startBackground runs restore-read's paced writer: an open loop of
// asynchronous cursor puts, due every bgWriteEvery whether or not the
// previous one returned in time. Lateness is start minus due time.
func (s *sessions) startBackground(ctx context.Context) {
	s.pub.setConcern(cluster.WriteAsync)
	s.bgStop, s.bgDone = make(chan struct{}), make(chan struct{})
	rng := rand.New(rand.NewSource(s.seed + 200))
	go func() {
		defer close(s.bgDone)
		start := time.Now()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * bgWriteEvery)
			select {
			case <-s.bgStop:
				return
			case <-time.After(time.Until(due)):
			}
			late := time.Since(due)
			err := s.write(ctx, rng.Intn(sessionCount), 0, fmt.Sprintf("bg-%d-%d", k, rng.Int63()), -1)
			s.bgMu.Lock()
			s.bgLate = append(s.bgLate, late)
			s.bgRes.attempted++
			if err != nil {
				s.bgRes.failed++
				if len(s.bgRes.errs) < 5 {
					s.bgRes.errs = append(s.bgRes.errs, "background write: "+err.Error())
				}
			}
			s.bgMu.Unlock()
		}
	}()
}

func (s *sessions) stopBackground() {
	if s.bgStop == nil {
		return
	}
	close(s.bgStop)
	<-s.bgDone
	s.bgStop = nil
}

// background returns the writer's lateness samples and its tally so far.
func (s *sessions) background() ([]time.Duration, windowResult) {
	s.bgMu.Lock()
	defer s.bgMu.Unlock()
	return append([]time.Duration(nil), s.bgLate...), s.bgRes
}

// settle waits until every watcher accounts for every event the center
// published for the benchmark's puts: delivered + lost == published.
func (s *sessions) settle() error {
	want := s.pub.events.Load()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		var got [watchSinks][2]int64
		for i, w := range s.watchers {
			d, l, _ := w.counts()
			got[i] = [2]int64{d, l}
			ok = ok && d+l == want
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("watch accounting: published %d, watchers saw [delivered lost] %v", want, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verify is the end-of-run correctness check: for a seeded sample of
// sessions, every center's latest record reassembles to the state the
// benchmark holds locally, and (after quorum writes) is marked durable.
// Peers beyond the quorum receive pushes asynchronously, hence the poll.
func (s *sessions) verify(ctx context.Context, wantDurable bool) error {
	sample := rand.New(rand.NewSource(s.seed + 300)).Perm(sessionCount)[:sampledSessions]
	for _, c := range s.centers {
		cli := cluster.NewSnapshotClient(s.node.Endpoint(), cluster.CenterEndpointName(c.name))
		for _, i := range sample {
			w, err := s.insts[i].WrapComponents(nil)
			if err != nil {
				return err
			}
			local := state.WrapDigest(w)
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := checkRecord(ctx, cli, sessionName(i), local, wantDurable)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("%s at %s: %w", sessionName(i), c.name, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	return nil
}

func checkRecord(ctx context.Context, cli *cluster.SnapshotClient, name string, local [32]byte, wantDurable bool) error {
	ctx, cancel := withTimeout(ctx)
	defer cancel()
	rec, found, err := cli.LatestSnapshot(ctx, name)
	if err != nil {
		return err
	}
	if !found {
		return errors.New("no snapshot record")
	}
	ts, err := rec.Snapshot()
	if err != nil {
		return err
	}
	switch digest := state.WrapDigest(ts.Wrap); {
	case digest != rec.StateDigest:
		return errors.New("record does not reassemble to its own digest")
	case digest != local:
		return errors.New("record is not the state last written")
	case wantDurable && !rec.Durable:
		return errors.New("record is not marked durable")
	}
	return nil
}

// scrapeCenters reads every center's obs registry.
func (s *sessions) scrapeCenters(ctx context.Context) ([][]obs.Sample, error) {
	out := make([][]obs.Sample, len(s.ctls))
	for i, cli := range s.ctls {
		var err error
		if out[i], err = scrape(ctx, cli); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", s.centers[i].name, err)
		}
	}
	return out, nil
}

// mark remembers where the span log, the watchers' lag logs and the
// replicator's counters stand, so a layer report covers one pass only.
type sessionMark struct {
	spans   int
	lags    [watchSinks]int
	stats   state.Stats
	centers [][]obs.Sample
	at      time.Time
}

func (s *sessions) mark(ctx context.Context) (sessionMark, error) {
	m := sessionMark{spans: s.rec.mark(), stats: s.repl.Stats(), at: time.Now()}
	for i, w := range s.watchers {
		_, _, m.lags[i] = w.counts()
	}
	var err error
	m.centers, err = s.scrapeCenters(ctx)
	return m, err
}

// writeLayer reports the write-path layers over a pass of ops session
// writes that started at mark from.
func (s *sessions) writeLayer(ctx context.Context, from sessionMark, ops int, m metrics) error {
	elapsed := time.Since(from.at)
	if err := s.settle(); err != nil {
		return err
	}
	after, err := s.scrapeCenters(ctx)
	if err != nil {
		return err
	}
	total, self := durationsOf(s.rec.since(from.spans))
	m.set("state.capture_self_p50_us", p50(self["state.Capture"], time.Microsecond))
	m.set("cluster.put_quorum_p50_us", p50(total["cluster.PutSnapshot"], time.Microsecond))

	var lags []time.Duration
	var lost int64
	for i, w := range s.watchers {
		w.mu.Lock()
		lags = append(lags, w.lags[from.lags[i]:]...)
		lost += w.lost
		w.mu.Unlock()
	}
	m.set("ctl.watch_lag_p50_us", p50(lags, time.Microsecond))
	m.set("ctl.watch_lag_p95_us", quantileOf(lags, 0.95, time.Microsecond))
	m.set("ctl.watch_delivered_per_s", float64(len(lags))/elapsed.Seconds())
	m.set("ctl.watch_lost_total", float64(lost))

	st := s.repl.Stats()
	pubs := float64(st.Publishes - from.stats.Publishes)
	if d := st.DeltaFrames - from.stats.DeltaFrames; d > 0 {
		m.set("state.delta_frame_bytes", float64(st.DeltaBytes-from.stats.DeltaBytes)/float64(d))
	}
	if f := st.FullFrames - from.stats.FullFrames; f > 0 {
		m.set("state.full_frame_bytes", float64(st.FullBytes-from.stats.FullBytes)/float64(f))
	}
	m.set("state.full_frame_ratio", float64(st.FullFrames-from.stats.FullFrames)/pubs)

	n := float64(ops)
	lab1, dir := s.centers[0].name, filepath.Base(s.storeDir)
	b, a := from.centers[0], after[0]
	ackWait, _ := histMeanDelta(b, a, "mdagent_fed_ack_wait_ns", "space", lab1)
	m.set("cluster.fed_ack_wait_mean_us", ackWait/1e3)
	m.set("cluster.fed_pushes_per_op", counterDelta(b, a, "mdagent_fed_push_total", "space", lab1)/n)
	m.set("cluster.fed_nacks_per_op", counterDelta(b, a, "mdagent_fed_nack_total", "space", lab1)/n)
	var rejects float64
	for i := range after {
		rejects += float64(pick(after[i], "mdagent_fed_delta_rejects_total").value)
	}
	m.set("cluster.fed_delta_rejects_total", rejects)
	putWait, _ := histMeanDelta(b, a, "mdagent_store_put_wait_seconds", "dir", dir)
	m.set("store.put_wait_mean_us", putWait/1e3)
	m.set("store.fsyncs_per_op", counterDelta(b, a, "mdagent_store_fsyncs_total", "dir", dir)/n)
	m.set("store.wal_bytes_per_op", counterDelta(b, a, "mdagent_store_wal_bytes_total", "dir", dir)/n)
	batch, _ := histMeanDelta(b, a, "mdagent_store_commit_batch_frames", "dir", dir)
	m.set("store.commit_batch_frames_mean", batch)
	m.set("ctxkernel.publishes_per_op", counterDelta(b, a, "mdagent_kernel_publish_total")/n)
	return nil
}

// readLayer reports the read-path layers over a pass of restore
// operations that started at mark from.
func (s *sessions) readLayer(ctx context.Context, from sessionMark, m metrics) error {
	total, _ := durationsOf(s.rec.since(from.spans))
	m.set("cluster.fetch_latest_p50_us", p50(total["cluster.LatestSnapshot"], time.Microsecond))
	m.set("state.reassemble_p50_us", p50(total["state.Snapshot"], time.Microsecond))
	late, _ := s.background()
	m.set("e2e.bg_writer_late_p95_ms", quantileOf(late, 0.95, time.Millisecond))

	// A long-lived client re-fetching what it already holds is served the
	// delta tail only; count how often, over one second pass.
	cli := cluster.NewSnapshotClient(s.node.Endpoint(), cluster.CenterEndpointName(s.centers[0].name))
	for pass := 0; pass < 2; pass++ {
		for i := range s.insts {
			fctx, cancel := withTimeout(ctx)
			_, found, err := cli.LatestSnapshot(fctx, sessionName(i))
			cancel()
			if err != nil || !found {
				return fmt.Errorf("refetch %s: found=%v: %w", sessionName(i), found, err)
			}
		}
	}
	m.set("cluster.fetch_delta_only_ratio", float64(cli.FetchStats().DeltaOnly)/sessionCount)

	after, err := scrape(ctx, s.ctls[0])
	if err != nil {
		return err
	}
	m.set("store.compactions_total", float64(pick(after, "mdagent_store_compactions_total", "dir", filepath.Base(s.storeDir)).value))
	hctx, cancel := withTimeout(ctx)
	heads, err := s.pub.inner.SnapshotHeads(hctx)
	cancel()
	if err != nil {
		return err
	}
	var live int64
	for _, h := range heads {
		live += int64(h.Bytes)
	}
	disk, err := dirBytes(s.storeDir)
	if err != nil {
		return err
	}
	if live > 0 {
		m.set("store.disk_bytes_per_live_byte", float64(disk)/float64(live))
	}
	return nil
}

// dirBytes is the apparent size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var sum int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			sum += info.Size()
		}
		return nil
	})
	return sum, err
}

// putProbes times the snapshot put under each write concern with one
// writer and nothing else running, so that quorum minus async is the
// federation ack alone. Quorum goes last: every session's newest write is
// then a durable one, which the end-of-run check relies on.
func (s *sessions) putProbes(ctx context.Context, m metrics) error {
	defer s.pub.setConcern(cluster.WriteQuorum)
	p50s := map[cluster.WriteConcern]float64{}
	for _, wc := range []cluster.WriteConcern{cluster.WriteAsync, cluster.WriteOne, cluster.WriteQuorum} {
		s.pub.setConcern(wc)
		from := s.rec.mark()
		for k := 0; k < probeN; k++ {
			if err := s.write(ctx, k%sessionCount, 0, fmt.Sprintf("probe-%s-%d", wc, k), -1); err != nil {
				return fmt.Errorf("put probe (%s): %w", wc, err)
			}
		}
		total, _ := durationsOf(s.rec.since(from))
		p50s[wc] = p50(total["cluster.PutSnapshot"], time.Microsecond)
	}
	m.set("cluster.put_quorum_p50_us", p50s[cluster.WriteQuorum])
	m.set("cluster.put_one_p50_us", p50s[cluster.WriteOne])
	m.set("cluster.put_async_p50_us", p50s[cluster.WriteAsync])
	m.set("cluster.fed_ack_p50_us", p50s[cluster.WriteQuorum]-p50s[cluster.WriteAsync])
	return nil
}
