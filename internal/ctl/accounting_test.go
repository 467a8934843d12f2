package ctl_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/obs"
	"mdagent/internal/transport"
)

// acctRun drives one bursty-publisher/slow-watcher run and returns the
// books: events published, delivered, and reported lost in-band.
type acctRun struct {
	published *atomic.Int64
	delivered int64
	lost      int64
	lastSeq   uint64
}

// runBurstWatch publishes a multi-goroutine burst at a deliberately
// slow watcher and drains until the stream idles, then (when balance
// demands it) publishes flush events one at a time — drops are reported
// in-band on the NEXT delivered event, so trailing losses need a
// delivery to ride on — until delivered+lost == published or the
// deadline passes.
func runBurstWatch(t *testing.T) acctRun {
	t.Helper()
	fabric := transport.NewLocalFabric(nil)
	srvEp, err := fabric.Attach("acct-srv", "")
	if err != nil {
		t.Fatal(err)
	}
	kernel := ctxkernel.NewKernel()
	srv := ctl.NewServer(ctl.Backend{Kernel: kernel})
	srv.Serve(srvEp)
	defer srv.Close()
	cliEp, err := fabric.Attach("acct-cli", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := ctl.NewClient(cliEp, "acct-srv")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := cli.Watch(ctx, "burst.*")
	if err != nil {
		t.Fatal(err)
	}

	// Bursty publishers: concurrent volume the replay ring must absorb
	// while the watcher dawdles.
	const publishers = 8
	const perPublisher = 500
	run := acctRun{published: &atomic.Int64{}}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				kernel.Publish(ctxkernel.Event{
					Topic: "burst.tick", At: time.Now(), Source: "acct",
					Attrs: map[string]string{"pub": fmt.Sprint(p), "seq": fmt.Sprint(i)},
				})
				run.published.Add(1)
			}
		}(p)
	}
	burstDone := make(chan struct{})
	go func() { wg.Wait(); close(burstDone) }()

	// Slow watcher during the burst: sleep per delivery so drops pile up.
	drainOne := func(timeout time.Duration) bool {
		select {
		case ev, ok := <-stream:
			if !ok {
				t.Fatal("stream closed unexpectedly")
			}
			run.delivered++
			run.lost += int64(ev.Lost)
			if ev.Seq != 0 {
				if ev.Seq <= run.lastSeq {
					t.Fatalf("seq went backwards: %d after %d", ev.Seq, run.lastSeq)
				}
				run.lastSeq = ev.Seq
			}
			return true
		case <-time.After(timeout):
			return false
		}
	}
	for {
		select {
		case <-burstDone:
		default:
			if drainOne(10 * time.Millisecond) {
				time.Sleep(500 * time.Microsecond)
			}
			continue
		}
		break
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		for drainOne(time.Millisecond) {
		}
		if run.delivered+run.lost == run.published.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never balanced: delivered %d + lost %d != published %d",
				run.delivered, run.lost, run.published.Load())
		}
		kernel.Publish(ctxkernel.Event{Topic: "burst.flush", At: time.Now(), Source: "acct"})
		run.published.Add(1)
		time.Sleep(2 * time.Millisecond)
	}

	if run.delivered+run.lost != run.published.Load() {
		t.Fatalf("conservation violated: delivered %d + lost %d != published %d",
			run.delivered, run.lost, run.published.Load())
	}
	return run
}

// TestWatchConservationV2 runs the burst against the sequenced stream:
// the replay ring is deeper than the whole burst, so even a deliberately
// slow watcher must see every single event — zero Lost, delivered ==
// published, strictly increasing sequence numbers, and no movement on
// the drop counter.
func TestWatchConservationV2(t *testing.T) {
	drops := obs.Default.Counter("mdagent_ctl_watch_dropped_total")
	before := drops.Value()
	run := runBurstWatch(t)
	if run.lost != 0 {
		t.Fatalf("v2 stream lost %d events (delivered %d of %d): the ring should have absorbed the burst",
			run.lost, run.delivered, run.published.Load())
	}
	if run.delivered != run.published.Load() {
		t.Fatalf("delivered %d != published %d", run.delivered, run.published.Load())
	}
	if run.lastSeq == 0 {
		t.Fatal("v2 stream delivered no sequence numbers")
	}
	if metric := drops.Value() - before; metric != 0 {
		t.Fatalf("drop counter moved by %d on a lossless v2 run", metric)
	}
	t.Logf("published %d, delivered %d, highest seq %d",
		run.published.Load(), run.delivered, run.lastSeq)
}
