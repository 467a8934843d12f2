// Benchmarks regenerating every results figure of the paper's evaluation
// (§5). Durations are *simulated* 2002-era testbed time reported via
// b.ReportMetric (suspend-ms, migrate-ms, resume-ms, total-ms); the
// wall-clock ns/op of each benchmark is merely how fast the simulator
// replays them. Run:
//
//	go test -bench=. -benchmem
//
// cmd/mdbench prints the same series as paper-style tables.
package mdagent_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mdagent/internal/bench"
	"mdagent/internal/cluster"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/rules"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

func reportPoint(b *testing.B, p bench.Point) {
	b.Helper()
	b.ReportMetric(float64(p.Suspend.Milliseconds()), "suspend-ms")
	b.ReportMetric(float64(p.Migrate.Milliseconds()), "migrate-ms")
	b.ReportMetric(float64(p.Resume.Milliseconds()), "resume-ms")
	b.ReportMetric(float64(p.Total.Milliseconds()), "total-ms")
	b.ReportMetric(float64(p.Bytes), "wrap-bytes")
}

// BenchmarkFig8AdaptiveBinding regenerates Fig. 8: follow-me with
// adaptive component binding across the paper's six file sizes. Expected
// shape: suspend and migrate flat, resume growing gently (< ~200-300 ms
// from 2.0M to 7.5M), total ~1 s.
func BenchmarkFig8AdaptiveBinding(b *testing.B) {
	for i, size := range bench.FileSizes {
		b.Run(bench.FileLabels[i], func(b *testing.B) {
			var last bench.Point
			for n := 0; n < b.N; n++ {
				p, err := bench.RunFollowMe(size, migrate.BindingAdaptive)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			reportPoint(b, last)
		})
	}
}

// BenchmarkFig9StaticBinding regenerates Fig. 9: the original static
// binding where data, logic and UI all migrate. Expected shape: migrate
// grows linearly with file size (10 Mbps-bound), dominating the total.
func BenchmarkFig9StaticBinding(b *testing.B) {
	for i, size := range bench.FileSizes {
		b.Run(bench.FileLabels[i], func(b *testing.B) {
			var last bench.Point
			for n := 0; n < b.N; n++ {
				p, err := bench.RunFollowMe(size, migrate.BindingStatic)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			reportPoint(b, last)
		})
	}
}

// BenchmarkFig10Comparative regenerates Fig. 10: adaptive vs static total
// cost at each size. Expected shape: adaptive wins everywhere, with the
// gap widening as file size grows.
func BenchmarkFig10Comparative(b *testing.B) {
	for i, size := range bench.FileSizes {
		b.Run(bench.FileLabels[i], func(b *testing.B) {
			var a, s bench.Point
			for n := 0; n < b.N; n++ {
				var err error
				a, err = bench.RunFollowMe(size, migrate.BindingAdaptive)
				if err != nil {
					b.Fatal(err)
				}
				s, err = bench.RunFollowMe(size, migrate.BindingStatic)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.Total.Milliseconds()), "adaptive-ms")
			b.ReportMetric(float64(s.Total.Milliseconds()), "static-ms")
			b.ReportMetric(float64(s.Total)/float64(a.Total), "static/adaptive")
		})
	}
}

// BenchmarkFig7SkewCancellation regenerates the Fig. 7 method check: the
// round-trip formula must cancel a 3 s clock offset exactly, while the
// naive cross-clock reading is off by that offset.
func BenchmarkFig7SkewCancellation(b *testing.B) {
	var res bench.Fig7Result
	for n := 0; n < b.N; n++ {
		var err error
		res, err = bench.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SkewCanceled.Milliseconds()), "skew-canceled-rtt-ms")
	b.ReportMetric(float64(res.TrueRTT.Milliseconds()), "true-rtt-ms")
	b.ReportMetric(float64((res.SkewCanceled - res.TrueRTT).Abs().Microseconds()), "formula-error-us")
	b.ReportMetric(float64((res.NaiveOneWay - res.TrueOneWay).Abs().Milliseconds()), "naive-error-ms")
}

// BenchmarkCloneDispatchFanout regenerates demo 2 at growing scale:
// cloning the lecture slideshow to N gateway-connected overflow rooms and
// synchronizing one slide change to all of them.
func BenchmarkCloneDispatchFanout(b *testing.B) {
	for _, rooms := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rooms-%d", rooms), func(b *testing.B) {
			var res []bench.CloneResult
			for n := 0; n < b.N; n++ {
				var err error
				res, err = bench.RunCloneFanout(rooms, 3_000_000)
				if err != nil {
					b.Fatal(err)
				}
			}
			var totalClone time.Duration
			for _, r := range res {
				totalClone += r.Report.Total()
			}
			b.ReportMetric(float64(totalClone.Milliseconds())/float64(len(res)), "clone-ms-per-room")
			b.ReportMetric(float64(res[0].SyncRTT.Milliseconds()), "slide-sync-ms")
		})
	}
}

// BenchmarkChurnFailover measures the cluster layer's reaction to host
// churn in an N-space federated deployment: how long gossip takes to
// convict a killed host (convergence-ms; bounded below by the 40 ms
// suspicion window of bench.ChurnConfig) and how long failover then
// takes to re-home the host's application onto a survivor (failover-ms).
// These are wall-clock protocol timings, not simulated 2002-era
// durations — the failure detector runs on real timers.
//
// The "state" variants run with snapshot-state replication on
// (bench.ChurnStateConfig): replication-ms is how long a state write
// takes to reach every surviving center, failover-ms now includes the
// snapshot restore, and state-intact confirms the value-level check.
func BenchmarkChurnFailover(b *testing.B) {
	for _, spaces := range []int{3, 5, 8} {
		for _, withState := range []bool{false, true} {
			name := fmt.Sprintf("spaces-%d", spaces)
			cfg := bench.ChurnConfig()
			if withState {
				name += "-state"
				cfg = bench.ChurnStateConfig()
			}
			b.Run(name, func(b *testing.B) {
				var last bench.ChurnResult
				for n := 0; n < b.N; n++ {
					res, err := bench.RunChurn(spaces, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.Convergence.Milliseconds()), "convergence-ms")
				b.ReportMetric(float64(last.Failover.Milliseconds()), "failover-ms")
				b.ReportMetric(float64(last.Total.Milliseconds()), "total-ms")
				if withState {
					b.ReportMetric(float64(last.Replication.Milliseconds()), "replication-ms")
					b.ReportMetric(float64(last.SnapshotBytes), "snapshot-bytes")
					intact := 0.0
					if last.StateIntact {
						intact = 1
					}
					b.ReportMetric(intact, "state-intact")
				}
			})
		}
	}
}

// BenchmarkDurableWrite measures the per-write latency cost of each
// federation write concern (write-us / snap-us, healthy federation) and
// re-runs the kill-after-write audit: silent-loss must read 0 for one
// and quorum, while async shows the records a center crash silently
// eats. The experiment builds bare centers, so the numbers isolate the
// ack-carrying push path from gossip and middleware overhead.
func BenchmarkDurableWrite(b *testing.B) {
	for _, wc := range []cluster.WriteConcern{cluster.WriteAsync, cluster.WriteOne, cluster.WriteQuorum} {
		b.Run(string(wc), func(b *testing.B) {
			var last bench.DurabilityResult
			for n := 0; n < b.N; n++ {
				res, err := bench.RunDurability(3, 8, wc)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.HealthyLatency.Microseconds()), "write-us")
			b.ReportMetric(float64(last.SnapLatency.Microseconds()), "snap-us")
			b.ReportMetric(float64(last.DegradedLatency.Microseconds()), "degraded-us")
			b.ReportMetric(float64(last.SilentLoss), "silent-loss")
			b.ReportMetric(float64(last.Flagged), "flagged")
		})
	}
}

// BenchmarkFlapStability measures failure-detector robustness under a
// flapping link: false suspicions leaked past the indirect probes, false
// convictions (should be zero), and how fast membership settles once the
// flapping stops.
func BenchmarkFlapStability(b *testing.B) {
	for _, spaces := range []int{3, 5} {
		b.Run(fmt.Sprintf("spaces-%d", spaces), func(b *testing.B) {
			var last bench.FlapResult
			for n := 0; n < b.N; n++ {
				res, err := bench.RunFlap(spaces, bench.ChurnConfig(), 10*time.Millisecond, 10)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Suspicions), "suspicions")
			b.ReportMetric(float64(last.Convictions), "convictions")
			b.ReportMetric(float64(last.HealTime.Milliseconds()), "heal-ms")
		})
	}
}

// BenchmarkAblationMatching quantifies §3.3's claim that semantic
// matching beats syntax-based matching: destination resources are
// same-function printers under different names/subclasses.
func BenchmarkAblationMatching(b *testing.B) {
	onto := owl.Classes()
	src := owl.Resource{ID: "src", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "h1",
		Attrs: map[string]string{"name": "hp LaserJet 4"}}
	dest := make([]owl.Resource, 0, 64)
	for i := 0; i < 64; i++ {
		class := "Printer"
		if i%2 == 0 {
			class = "ColorPrinter"
		}
		dest = append(dest, owl.Resource{
			ID: fmt.Sprintf("d%d", i), Class: rdf.IMCL(class), Substitutable: true, Host: "h2",
			Attrs: map[string]string{"name": fmt.Sprintf("model-%d", i)},
		})
	}
	for _, mode := range []owl.MatchMode{owl.MatchSemantic, owl.MatchSyntactic} {
		b.Run(mode.String(), func(b *testing.B) {
			m := owl.NewMatcher(onto, mode)
			hits := 0
			for n := 0; n < b.N; n++ {
				hits = 0
				for _, d := range dest {
					if m.CanSubstitute(src, d) {
						hits++
					}
				}
			}
			b.ReportMetric(float64(hits)/float64(len(dest))*100, "hit-%")
		})
	}
}

// BenchmarkAblationRuleEngine measures forward-chaining fixpoint cost on
// transitive-closure workloads of growing size (the Fig. 6 Rule 1 shape).
func BenchmarkAblationRuleEngine(b *testing.B) {
	rule := `[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]`
	for _, chain := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("chain-%d", chain), func(b *testing.B) {
			rs := rules.MustParse(rule, rdf.NewNamespaces())
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				g := rdf.NewGraph()
				for i := 0; i+1 < chain; i++ {
					g.Add(rdf.T(rdf.IMCL(fmt.Sprintf("n%d", i)), rdf.IMCL("locatedIn"), rdf.IMCL(fmt.Sprintf("n%d", i+1))))
				}
				eng, err := rules.NewEngine(rs)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.Infer(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRegistry measures lookup latency as the registered
// population grows, against a volatile registry center (one with no
// peers and no store).
func BenchmarkAblationRegistry(b *testing.B) {
	desc := wsdl.Description{
		Name: "app",
		Services: []wsdl.Service{{Name: "s", Ports: []wsdl.Port{{
			Name: "p", Operations: []wsdl.Operation{{Name: "op"}},
		}}}},
	}
	for _, population := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("apps-%d", population), func(b *testing.B) {
			fab := transport.NewLocalFabric(nil)
			b.Cleanup(func() { fab.Close() })
			ep, err := fab.Attach("registry-center", "")
			if err != nil {
				b.Fatal(err)
			}
			reg, err := cluster.NewCenter("", nil, ep, cluster.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			for i := 0; i < population; i++ {
				d := desc
				d.Name = fmt.Sprintf("app-%d", i)
				if err := reg.RegisterApp(ctx, registry.AppRecord{
					Name: d.Name, Host: fmt.Sprintf("host-%d", i%10), Description: d,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, _, err := reg.LookupApp(ctx, fmt.Sprintf("app-%d", n%population), fmt.Sprintf("host-%d", (n%population)%10)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLinkSpeed asks whether adaptive binding's advantage
// survives faster networks: at 100 Mbps the static transfer penalty
// shrinks by 10x, yet adaptive stays ahead at 7.5 MB because the fixed
// platform costs dominate. On 11 Mbps WLAN the gap is 10 Mbps-like.
func BenchmarkAblationLinkSpeed(b *testing.B) {
	links := []struct {
		name string
		prof netsim.LinkProfile
	}{
		{"eth10", netsim.Ethernet10()},
		{"eth100", netsim.Ethernet100()},
		{"wlan11", netsim.WLAN11()},
	}
	for _, link := range links {
		b.Run(link.name, func(b *testing.B) {
			var a, s bench.Point
			for n := 0; n < b.N; n++ {
				var err error
				a, err = bench.RunFollowMeOnLink(7_500_000, migrate.BindingAdaptive, link.prof)
				if err != nil {
					b.Fatal(err)
				}
				s, err = bench.RunFollowMeOnLink(7_500_000, migrate.BindingStatic, link.prof)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.Total.Milliseconds()), "adaptive-ms")
			b.ReportMetric(float64(s.Total.Milliseconds()), "static-ms")
			b.ReportMetric(float64(s.Total)/float64(a.Total), "static/adaptive")
		})
	}
}

// BenchmarkAblationContextFanout measures pub/sub multicast cost as the
// subscriber population grows (the paper's multicast-to-listeners kernel).
func BenchmarkAblationContextFanout(b *testing.B) {
	for _, subs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("subs-%d", subs), func(b *testing.B) {
			k := ctxkernel.NewKernel()
			sink := 0
			for i := 0; i < subs; i++ {
				k.Subscribe("user.*", func(ctxkernel.Event) { sink++ })
			}
			ev := ctxkernel.Event{
				Topic: ctxkernel.TopicUserLocation,
				Attrs: map[string]string{ctxkernel.AttrUser: "alice", ctxkernel.AttrRoom: "r1"},
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				k.Publish(ev)
			}
		})
	}
}

// BenchmarkMembersGossip runs the membership scale sweep at bench-smoke
// sizes: per-message gossip payload must stay flat as the cluster grows
// (bounded dissemination), join convergence ~O(log N) rounds.
func BenchmarkMembersGossip(b *testing.B) {
	for _, hosts := range []int{60, 120} {
		b.Run(fmt.Sprintf("hosts-%d", hosts), func(b *testing.B) {
			var last bench.MembersResult
			for n := 0; n < b.N; n++ {
				res, err := bench.RunMembers(hosts, bench.MembersConfig())
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.BytesPerMsg, "bytes/msg")
			b.ReportMetric(last.BytesPerHostSec, "bytes/host/s")
			b.ReportMetric(float64(last.JoinRounds), "join-rounds")
			b.ReportMetric(float64(last.FalseSuspects+last.FalseConvictions), "false-positives")
		})
	}
}
