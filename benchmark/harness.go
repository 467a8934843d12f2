package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// driver is one workload's closed loop: workers clients, each waiting
// for its reply before it sends its next request.
type driver interface {
	workers() int
	// op runs worker w's next operation and checks its result. excluded
	// is time the call spent on diagnostics (fetching a server-side
	// trace, a periodic consistency check) that are not the operation.
	op(ctx context.Context, w int) (excluded time.Duration, err error)
}

// windowResult is what one window of a driver's traffic produced.
type windowResult struct {
	window    time.Duration
	samples   []opSample // completed, verified operations
	attempted int
	failed    int
	errs      []string     // the first few failures, for the report
	roles     []roleSample // /proc readings at the sub-window boundaries
}

// maxFailures aborts a window: the workloads are chosen so that nothing
// fails, and a run that keeps failing is reporting a broken deployment.
const maxFailures = 50

// loop runs the driver's workers until stop says so, which it is asked
// before every operation with the number that worker completed.
func loop(ctx context.Context, drv driver, stop func(done int) bool) windowResult {
	var (
		mu  sync.Mutex
		res windowResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < drv.workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for done := 0; !stop(done) && ctx.Err() == nil; done++ {
				t0 := time.Now()
				excluded, err := drv.op(ctx, w)
				end := time.Now()
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				} else {
					res.samples = append(res.samples,
						opSample{end: end.Sub(start), lat: end.Sub(t0) - excluded})
				}
				tooMany := res.failed >= maxFailures
				mu.Unlock()
				if tooMany {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res.window = time.Since(start)
	return res
}

// runOps runs n operations per worker.
func runOps(ctx context.Context, drv driver, n int) windowResult {
	return loop(ctx, drv, func(done int) bool { return done >= n })
}

// runFor runs the driver for dur and reads every process's /proc
// counters at each sub-window boundary.
func runFor(ctx context.Context, drv driver, dep *deployment, dur time.Duration) (windowResult, error) {
	first, err := sampleRoles(dep)
	if err != nil {
		return windowResult{}, err
	}
	start := time.Now()
	roles := []roleSample{first}
	var sampleErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 1; i <= subWindows; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / subWindows)))
			s, err := sampleRoles(dep)
			if err != nil {
				sampleErr = err
				return
			}
			roles = append(roles, s)
		}
	}()
	res := loop(ctx, drv, func(int) bool { return time.Since(start) >= dur })
	<-sampled
	if sampleErr != nil {
		return res, sampleErr
	}
	if err := dep.alive(); err != nil {
		return res, err
	}
	res.window = dur
	res.roles = roles
	return res, nil
}

// cpuPerOp is the median over the sub-windows of the CPU time every
// process together spent per completed operation.
func cpuPerOp(res windowResult, perSlice []int) float64 {
	var v []float64
	for i, n := range perSlice {
		if n > 0 {
			v = append(v, (res.roles[i+1].totalCPUMs()-res.roles[i].totalCPUMs())/float64(n))
		}
	}
	return median(v)
}

func (r windowResult) failure() error {
	if r.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed, first: %v", r.failed, r.attempted, r.errs)
}

// withTimeout is the per-request deadline every generated request runs
// under: long enough for a cold 2.7 MB hop on a busy box, short enough
// that a wedged daemon fails the run instead of hanging it.
func withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, 30*time.Second)
}
