package bench

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/netsim"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// DurabilityResult is one kill-after-write experiment: write a batch of
// registry records and snapshot records to one federated center while
// the federation is healthy, cut the writer off from its peers, write a
// second batch, then kill the writer and audit what the surviving
// centers hold. The audit separates *silent* loss — writes the caller
// was told succeeded (and, under a synchronous concern, were durable)
// that no survivor holds — from flagged loss, where the write concern
// returned ErrNotDurable so the caller knew the write was at risk.
type DurabilityResult struct {
	Spaces  int
	Concern cluster.WriteConcern
	// Writes is the batch size per phase and record kind (so 2*Writes
	// registry records and 2*Writes snapshot records total).
	Writes int

	// Healthy-phase measurements (all peers reachable).
	HealthyLatency time.Duration // mean per-write latency, registry records
	SnapLatency    time.Duration // mean per-put latency, snapshot records

	// Partitioned-phase measurements (writer cut off from every peer).
	DegradedLatency time.Duration // mean per-write latency while degraded
	Flagged         int           // writes that returned ErrNotDurable (caller warned)

	// Post-kill audit over every written key, both kinds.
	SilentLoss int // writes reported OK/durable that no survivor holds
	LostTotal  int // all writes no survivor holds (flagged ones included)
	Durable    int // writes confirmed on at least one survivor
	// DurabilityEvents counts center durability reports by outcome.
	EventsDurable, EventsDegraded int
}

// durabilityFrame builds one small snapshot frame for the given value.
func durabilityFrame(appName, val string) (state.SnapshotPut, error) {
	inst := app.New(appName, "ctr-1", wsdl.Description{
		Name: appName,
		Services: []wsdl.Service{{Name: "svc", Ports: []wsdl.Port{{
			Name: "p", Operations: []wsdl.Operation{{Name: "op"}},
		}}}},
	})
	st := app.NewState("st")
	st.Set("v", val)
	if err := inst.AddComponent(st); err != nil {
		return state.SnapshotPut{}, err
	}
	w, err := inst.WrapComponents(nil)
	if err != nil {
		return state.SnapshotPut{}, err
	}
	frame, err := state.EncodeSnapshot(app.TaggedSnapshot{Tag: "replica", At: time.Unix(1, 0), Wrap: w})
	if err != nil {
		return state.SnapshotPut{}, err
	}
	return state.SnapshotPut{
		App: appName, Host: "ctr-1", At: time.Unix(1, 0),
		Frame: frame, NewDigest: state.WrapDigest(w),
	}, nil
}

// centerFederation builds n fully meshed bare centers (no middleware,
// no anti-entropy loops started), one netsim host each on a single LAN
// segment — the federation spaces are logical, and direct links keep
// the experiments about push durability, not gateway routing.
func centerFederation(n int, net *netsim.Network, fab *transport.LocalFabric, cfg cluster.Config) ([]*cluster.Center, error) {
	centers := make([]*cluster.Center, n)
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("ctr-%d", i+1)
		space := fmt.Sprintf("space-%d", i+1)
		if _, err := net.AddHost(host, "lan", netsim.PentiumM_1600(), 0); err != nil {
			return nil, err
		}
		ep, err := fab.Attach(cluster.CenterEndpointName(space), host)
		if err != nil {
			return nil, err
		}
		if centers[i], err = cluster.NewCenter(space, nil, ep, cfg); err != nil {
			return nil, err
		}
	}
	for i, a := range centers {
		for j, b := range centers {
			if i != j {
				a.AddPeer(b.Space(), cluster.CenterEndpointName(b.Space()))
			}
		}
	}
	return centers, nil
}

// RunDurability runs the kill-after-write experiment over an n-space
// federation of bare centers (no middleware, no anti-entropy loops: a
// record reaches a peer only through the write-time push, which is
// exactly the window durable-by-write closes). Writes go to the first
// center; the "kill" is a netsim partition followed by host-down — the
// center dies before any of its partition-era pushes, retries, or
// anti-entropy rounds could run.
//
// The invariant under WriteConcern=quorum: SilentLoss == 0. Every write
// the caller was not warned about is on a surviving center. Under async
// the partition-era batch is silently lost in full (LostTotal == Writes
// per kind) because the writes reported success.
func RunDurability(n, writes int, concern cluster.WriteConcern) (DurabilityResult, error) {
	res := DurabilityResult{Spaces: n, Concern: concern, Writes: writes}
	if n < 3 {
		return res, fmt.Errorf("bench: durability needs >= 3 spaces for a meaningful quorum, got %d", n)
	}
	if writes <= 0 {
		return res, fmt.Errorf("bench: durability needs >= 1 write per phase, got %d", writes)
	}

	clock := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clock, netsim.WithSeed(7), netsim.WithDefaultLink(netsim.Ethernet100()))
	fab := transport.NewLocalFabric(net)
	defer fab.Close()

	// partitioned doubles as the reachability oracle the writer's center
	// consults (degraded mode): in a real deployment this is the
	// membership view; the bench flips it at partition time.
	var partitioned atomic.Bool
	cfg := cluster.Config{
		// No anti-entropy: Start is never called, so pushes are the only
		// replication channel, matching the loss window under test.
		SyncInterval: time.Hour,
		ProbeTimeout: 250 * time.Millisecond,
		AckTimeout:   time.Second,
		Seed:         7,
	}
	cfg.WriteConcern = concern

	centers, err := centerFederation(n, net, fab, cfg)
	if err != nil {
		return res, err
	}
	writer := centers[0]
	writer.SetReachable(func(string) bool { return !partitioned.Load() })
	writer.OnDurability(func(ev cluster.DurabilityEvent) {
		if ev.Durable {
			res.EventsDurable++
		} else {
			res.EventsDegraded++
		}
	})

	ctx := context.Background()
	type written struct {
		key      string // registry app name or snapshot app name
		snapshot bool
		flagged  bool // returned ErrNotDurable: the caller was warned
	}
	var log []written

	writeBatch := func(phase string) (time.Duration, time.Duration, error) {
		var regDur, snapDur time.Duration
		for i := 0; i < writes; i++ {
			name := fmt.Sprintf("app-%s-%03d", phase, i)
			start := time.Now()
			err := writer.RegisterApp(ctx, registry.AppRecord{
				Name: name, Host: "ctr-1",
				Description: wsdl.Description{Name: name, Services: []wsdl.Service{{
					Name: "svc", Ports: []wsdl.Port{{Name: "p", Operations: []wsdl.Operation{{Name: "op"}}}},
				}}},
				Running: true,
			})
			regDur += time.Since(start)
			if err != nil && !errors.Is(err, cluster.ErrNotDurable) {
				return regDur, snapDur, err
			}
			log = append(log, written{key: name, flagged: errors.Is(err, cluster.ErrNotDurable)})

			put, err := durabilityFrame("snap-"+name, name)
			if err != nil {
				return regDur, snapDur, err
			}
			start = time.Now()
			_, err = writer.PutSnapshot(ctx, put)
			snapDur += time.Since(start)
			if err != nil && !errors.Is(err, cluster.ErrNotDurable) {
				return regDur, snapDur, err
			}
			log = append(log, written{key: "snap-" + name, snapshot: true, flagged: errors.Is(err, cluster.ErrNotDurable)})
		}
		return regDur, snapDur, nil
	}

	// Phase 1: healthy federation. Under a synchronous concern every
	// write blocks until its peers acked; under async the pushes race
	// ahead, so give them a bounded drain before the audit (this phase
	// is the latency measurement, not the loss one).
	regDur, snapDur, err := writeBatch("healthy")
	if err != nil {
		return res, err
	}
	res.HealthyLatency = regDur / time.Duration(writes)
	res.SnapLatency = snapDur / time.Duration(writes)
	deadline := time.Now().Add(10 * time.Second)
	for {
		drained := true
		for _, w := range log {
			if !onAnySurvivor(ctx, centers[1:], w.key, w.snapshot) {
				drained = false
				break
			}
		}
		if drained {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("bench: healthy-phase pushes never drained to the peers")
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 2: the writer is cut off from every peer — its pushes fail
	// and (with a synchronous concern) its membership view says the
	// concern is unmeetable, so writes degrade to fast ErrNotDurable.
	partitioned.Store(true)
	rest := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		rest = append(rest, fmt.Sprintf("ctr-%d", i+1))
	}
	net.Partition([]string{"ctr-1"}, rest)
	markPartition := len(log)
	regDur, _, err = writeBatch("cutoff")
	if err != nil {
		return res, err
	}
	res.DegradedLatency = regDur / time.Duration(writes)

	// Kill the writer before any retry could run: its partition-era
	// records existed nowhere else.
	if err := net.SetHostDown("ctr-1", true); err != nil {
		return res, err
	}
	writer.Stop()

	// Audit: what do the survivors hold?
	for i, w := range log {
		held := onAnySurvivor(ctx, centers[1:], w.key, w.snapshot)
		switch {
		case held:
			res.Durable++
		default:
			res.LostTotal++
			if !w.flagged {
				res.SilentLoss++
			}
		}
		if i >= markPartition && w.flagged {
			res.Flagged++
		}
	}
	return res, nil
}

// onAnySurvivor reports whether any surviving center holds the record.
func onAnySurvivor(ctx context.Context, survivors []*cluster.Center, key string, snapshot bool) bool {
	for _, c := range survivors {
		if snapshot {
			if _, ok := c.LatestSnapshot(key); ok {
				return true
			}
			continue
		}
		if _, found, err := c.LookupApp(ctx, key, "ctr-1"); err == nil && found {
			return true
		}
	}
	return false
}
