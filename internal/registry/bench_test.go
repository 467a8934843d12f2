package registry_test

import (
	"context"
	"fmt"
	"testing"

	"mdagent/internal/demoapps"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/transport"
)

// benchPair serves a registry center on one TCP node and returns a client on
// another, both in this process: the round trip the mobile agent pays on
// every move (paper §4.1), minus the scheduler hop between processes.
func benchPair(b *testing.B) (*registry.Client, registry.AppRecord) {
	b.Helper()
	srv, err := transport.ListenTCP("registry", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	serveCenter(b, srv.Endpoint())
	cli, err := transport.ListenTCP("agent", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })
	cli.AddPeer("registry", srv.Addr())
	rec := registry.AppRecord{Name: "smart-media-player", Host: "hostA", Space: "lab1",
		Description: demoapps.MediaPlayerDesc(),
		Components:  []string{"codec-logic", "player-ui", "song1", "playback-state"}, Running: true}
	c := registry.NewClient(cli.Endpoint(), "registry")
	if err := c.RegisterApp(context.Background(), rec); err != nil {
		b.Fatal(err)
	}
	return c, rec
}

func BenchmarkLookupAppRTT(b *testing.B) {
	c, rec := benchPair(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, found, err := c.LookupApp(ctx, rec.Name, rec.Host)
		if err != nil || !found || len(got.Components) != len(rec.Components) {
			b.Fatalf("lookup = %+v, %v, %v", got, found, err)
		}
	}
}

func BenchmarkRegisterAppRTT(b *testing.B) {
	c, rec := benchPair(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RegisterApp(ctx, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryPlanMove is the center's side of a follow-me's plan
// read (registry.plan-move) without the wire: the destination's
// installation and one rebinding plan, read from a volatile center that
// holds 1,000 app records, the destination's resource found through the
// center's resource key index.
func BenchmarkRegistryPlanMove(b *testing.B) {
	r, ctx := newCenter(b), context.Background()
	for h := 0; h < 100; h++ {
		for a := 0; a < 10; a++ {
			rec := registry.AppRecord{Name: fmt.Sprintf("app-%d", a), Host: fmt.Sprintf("host-%03d", h), Space: "lab1",
				Description: demoapps.MediaPlayerDesc(),
				Components:  []string{"codec-logic", "player-ui", "song1", "playback-state"}}
			if err := r.RegisterApp(ctx, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	src := owl.Resource{ID: "srcPrn", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "host-000"}
	dst := owl.Resource{ID: "dstPrn", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "host-050"}
	for _, res := range []owl.Resource{src, dst} {
		if err := r.RegisterResource(ctx, res); err != nil {
			b.Fatal(err)
		}
	}
	resources := []owl.Resource{src}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := r.PlanMove(ctx, "app-3", "host-050", resources, owl.MatchSemantic)
		if err != nil || !plan.DestFound || len(plan.Rebindings) != 1 {
			b.Fatalf("plan = %+v, %v", plan, err)
		}
	}
}
