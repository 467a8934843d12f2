package main

import (
	"math"
	"sort"
	"time"
)

// beyond is how many samples must lie past a percentile for it to be
// reported: a tail estimated from fewer is one slow request, not a tail.
const beyond = 10

// subWindows is how many equal slices a measured window is cut into; the
// end-to-end figures are medians over the slices, which a single stall
// on a shared box moves far less than it moves one pooled figure.
const subWindows = 6

// rank is the nearest rank (1..n) of the q-th quantile (0..1) among n
// samples. The tolerance keeps 0.9 x 100 at rank 90, not 91.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the q-th quantile of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// supports reports whether n samples leave at least `beyond` of them past
// the q-th quantile.
func supports(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= beyond
}

// topPercentile returns the highest quantile n samples support, on the
// ladder 50, 90, 95, 99, 99.9, or 0 when even the median is unsupported.
func topPercentile(n int) float64 {
	top := 0.0
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99, 0.999} {
		if supports(n, q) {
			top = q
		}
	}
	return top
}

// opSample is one completed operation of a measured window.
type opSample struct {
	end time.Duration // completion time since the window opened
	lat time.Duration
}

// cutWindow cuts samples into n sub-windows of a window of the given length.
// An operation that completes after the window closed (the closed loop's
// last one) belongs to the last slice.
func cutWindow(samples []opSample, window time.Duration, n int) [][]float64 {
	out := make([][]float64, n)
	for _, s := range samples {
		i := int(int64(s.end) * int64(n) / int64(window))
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], float64(s.lat)/float64(time.Millisecond))
	}
	return out
}

// latencyFigures are the timing figures of one measured window.
type latencyFigures struct {
	p50ms, p95ms, opsPerSec float64
	perSlice                []int // completed ops per sub-window
}

// summarize applies the sub-window rule: p50 and throughput are medians
// over the sub-windows; p95 is too when every sub-window supports a p95,
// and is pooled over the whole window otherwise.
func summarize(samples []opSample, window time.Duration) latencyFigures {
	cut := cutWindow(samples, window, subWindows)
	var p50s, p95s, rates, all []float64
	f := latencyFigures{}
	slicedP95 := true
	sliceSec := window.Seconds() / subWindows
	for _, lats := range cut {
		s := sortedCopy(lats)
		f.perSlice = append(f.perSlice, len(s))
		p50s = append(p50s, percentile(s, 0.50))
		p95s = append(p95s, percentile(s, 0.95))
		rates = append(rates, float64(len(s))/sliceSec)
		all = append(all, s...)
		if !supports(len(s), 0.95) {
			slicedP95 = false
		}
	}
	f.p50ms = median(p50s)
	f.opsPerSec = median(rates)
	if slicedP95 {
		f.p95ms = median(p95s)
	} else {
		f.p95ms = percentile(sortedCopy(all), 0.95)
	}
	return f
}

// p50 is the median of durations in the given unit.
func p50(d []time.Duration, unit time.Duration) float64 { return quantileOf(d, 0.5, unit) }

// quantileOf is the q-th quantile of durations in the given unit.
func quantileOf(d []time.Duration, q float64, unit time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(unit)
	}
	sort.Float64s(v)
	return percentile(v, q)
}

// spread is the distance between the first and third quartile of v as a
// share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method).
func spread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(m)
}
