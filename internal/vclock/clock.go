// Package vclock provides the clock abstraction used by every timed
// operation in MDAgent.
//
// The paper's evaluation (§5) ran on a 2002-era testbed (P4 1.7 GHz and
// PM 1.6 GHz over 10 Mbps Ethernet). To reproduce the reported durations
// deterministically, all migration phases and network transfers are timed
// through a Clock: a Real clock paces live examples with actual sleeps,
// while a Virtual clock advances instantly by explicit cost charges so that
// benchmarks replay the calibrated 2002-era costs in microseconds of wall
// time. Per-host SkewedClock models the constant clock offset assumed by
// the paper's Fig. 7 round-trip measurement.
package vclock

import (
	"sync"
	"time"
)

// Clock is the time source for costed operations.
//
// Charge(d) accounts for d of simulated work: a virtual clock advances its
// reading by d immediately, while a real clock sleeps for d. Now reports the
// clock's current reading. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the clock's current reading.
	Now() time.Time
	// Charge accounts for d of simulated work or delay.
	Charge(d time.Duration)
}

// Real is a Clock backed by the wall clock. Charge sleeps.
//
// The zero value is ready to use.
type Real struct{}

var _ Clock = (*Real)(nil)

// Now returns the current wall-clock time.
func (*Real) Now() time.Time { return time.Now() }

// Charge sleeps for d, pacing live demos at realistic speed.
func (*Real) Charge(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Virtual is a Clock whose reading advances only by Charge calls. It lets
// benchmarks replay multi-second 2002-era migrations in microseconds while
// reporting the simulated durations.
//
// The zero value starts at the zero time; use NewVirtual to pick an epoch.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a Virtual clock whose reading starts at epoch.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{now: epoch}
}

// Now returns the current virtual reading.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Charge advances the virtual reading by d. Negative charges are ignored.
func (v *Virtual) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// Skewed wraps a Clock and offsets every reading by a constant amount,
// modeling a host whose crystal runs at the same rate but was set
// differently — exactly the assumption behind the paper's Fig. 7:
// "the difference of time values of clocks at the same time is nearly a
// constant value". Charges pass through to the underlying clock.
type Skewed struct {
	base   Clock
	offset time.Duration
}

var _ Clock = (*Skewed)(nil)

// NewSkewed returns a Clock reading base's time shifted by offset.
func NewSkewed(base Clock, offset time.Duration) *Skewed {
	return &Skewed{base: base, offset: offset}
}

// Now returns the skewed reading.
func (s *Skewed) Now() time.Time { return s.base.Now().Add(s.offset) }

// Charge forwards to the underlying clock.
func (s *Skewed) Charge(d time.Duration) { s.base.Charge(d) }
