package main

import (
	"context"

	"mdagent/internal/ctl"
	"mdagent/internal/obs"
)

// reading is what one metric name (narrowed by labels) holds at one
// moment: a counter or gauge value, or a histogram's count and sum.
type reading struct {
	value, count, sum int64
}

// pick sums every sample called name whose labels include the given
// key, value pairs.
func pick(samples []obs.Sample, name string, kv ...string) reading {
	var r reading
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		r.value += s.Value
		r.count += s.Count
		r.sum += s.Sum
	}
	return r
}

// counterDelta is how far a daemon's counter moved between two scrapes.
func counterDelta(before, after []obs.Sample, name string, kv ...string) float64 {
	return float64(pick(after, name, kv...).value - pick(before, name, kv...).value)
}

// histMeanDelta is the mean observation a daemon's histogram took in
// between two scrapes, in the histogram's own unit (nanoseconds for
// durations, frames for batch sizes), and how many observations that was.
func histMeanDelta(before, after []obs.Sample, name string, kv ...string) (mean float64, n int64) {
	a, b := pick(after, name, kv...), pick(before, name, kv...)
	n = a.count - b.count
	if n <= 0 {
		return 0, 0
	}
	return float64(a.sum-b.sum) / float64(n), n
}

// scrape reads a daemon's obs registry over its control plane.
func scrape(ctx context.Context, cli *ctl.Client) ([]obs.Sample, error) {
	ctx, cancel := withTimeout(ctx)
	defer cancel()
	return cli.Metrics(ctx)
}
