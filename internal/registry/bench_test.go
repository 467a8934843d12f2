package registry_test

import (
	"context"
	"testing"

	"mdagent/internal/demoapps"
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
	serveCenter(srv.Endpoint())
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
