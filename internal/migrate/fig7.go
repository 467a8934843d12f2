package migrate

import (
	"context"
	"fmt"
	"time"

	"mdagent/internal/owl"
)

// RoundTrip is the paper's Fig. 7 measurement: a migration from H1 to H2
// and back, with timestamps taken on each host's own (unsynchronized)
// clock. Because each host's clock offset is constant ("according to
// stable physical properties of crystal frequency, the difference of time
// values of clocks at the same time is nearly a constant value"), the sum
//
//	T2@H2 − T1@H1 + T4@H1 − T3@H2
//
// equals the true total migration time: the unknown offset Δ enters once
// as +Δ (in T2−T1) and once as −Δ (in T4−T3) and cancels.
type RoundTrip struct {
	T1        time.Time // H1 clock: outbound migration starts
	T2        time.Time // H2 clock: outbound migration completes
	T3        time.Time // H2 clock: return migration starts
	T4        time.Time // H1 clock: return migration completes
	Out, Back Report
}

// SkewCanceled returns the offset-free round-trip migration time.
func (rt RoundTrip) SkewCanceled() time.Duration {
	return rt.T2.Sub(rt.T1) + rt.T4.Sub(rt.T3)
}

// NaiveOneWay returns the outbound time read directly across the two
// clocks (T2@H2 − T1@H1), which is contaminated by the clock offset —
// what the paper's method avoids.
func (rt RoundTrip) NaiveOneWay() time.Duration { return rt.T2.Sub(rt.T1) }

// MeasureRoundTrip performs a follow-me migration from src's host to
// dst's host and back, recording the four Fig. 7 timestamps on the
// respective host clocks.
func MeasureRoundTrip(ctx context.Context, src, dst *Engine, appName string, binding BindingMode, match owl.MatchMode) (RoundTrip, error) {
	var rt RoundTrip
	if _, ok := src.App(appName); !ok {
		return rt, fmt.Errorf("migrate: app %q not running on %s", appName, src.Host())
	}
	rt.T1 = src.clock().Now()
	out, err := src.FollowMe(ctx, appName, dst.Host(), binding, match)
	if err != nil {
		return rt, fmt.Errorf("migrate: outbound leg: %w", err)
	}
	rt.T2 = dst.clock().Now()
	rt.Out = out

	rt.T3 = dst.clock().Now()
	back, err := dst.FollowMe(ctx, appName, src.Host(), binding, match)
	if err != nil {
		return rt, fmt.Errorf("migrate: return leg: %w", err)
	}
	rt.T4 = src.clock().Now()
	rt.Back = back
	return rt, nil
}
