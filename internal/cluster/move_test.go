package cluster

import (
	"context"
	"testing"

	"mdagent/internal/registry"
)

// runningOn lists the hosts c's replicated view says run appName.
func runningOn(t *testing.T, c *Center, appName string) []string {
	t.Helper()
	var hosts []string
	for _, rec := range c.Apps(nil) {
		if rec.Name == appName && rec.Running {
			hosts = append(hosts, rec.Host)
		}
	}
	return hosts
}

// TestMoveAppCommitsAtTheOwningCenter: registry.move-app demotes the
// source's record and registers the destination's running in one write
// at the center that owns the source's record. A center that merely holds
// a replica of it leaves it alone and says so, so the source demotes it
// at its own center; either way the federation converges to one running
// record.
func TestMoveAppCommitsAtTheOwningCenter(t *testing.T) {
	ctx := context.Background()
	player := func(host string, running bool) registry.AppRecord {
		return registry.AppRecord{Name: "player", Host: host, Description: appDesc("player"), Running: running}
	}

	t.Run("owner", func(t *testing.T) {
		a, b := newCenterPair(t)
		if err := a.RegisterApp(ctx, player("hostA", true)); err != nil {
			t.Fatal(err)
		}
		demoted, err := a.MoveApp(ctx, player("hostB", false), "hostA")
		if err != nil || !demoted {
			t.Fatalf("MoveApp at the owner = %v, %v; want demoted", demoted, err)
		}
		if got := runningOn(t, a, "player"); len(got) != 1 || got[0] != "hostB" {
			t.Fatalf("owner lists the player running on %v, want [hostB]", got)
		}
		if err := b.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
		if got := runningOn(t, b, "player"); len(got) != 1 || got[0] != "hostB" {
			t.Fatalf("replica lists the player running on %v, want [hostB]", got)
		}
	})

	t.Run("replica", func(t *testing.T) {
		a, b := newCenterPair(t)
		if err := a.RegisterApp(ctx, player("hostA", true)); err != nil {
			t.Fatal(err)
		}
		if err := b.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
		demoted, err := b.MoveApp(ctx, player("hostB", false), "hostA")
		if err != nil || demoted {
			t.Fatalf("MoveApp at a replica = %v, %v; want the source's record left to its owner", demoted, err)
		}
		if rec, _, _ := b.LookupApp(ctx, "player", "hostA"); !rec.Running {
			t.Fatal("a replica demoted a record another center owns")
		}
		// What the source then does at its own center.
		if err := a.RegisterApp(ctx, player("hostA", false)); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Center{a, b, a} {
			if err := c.SyncNow(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []*Center{a, b} {
			if got := runningOn(t, c, "player"); len(got) != 1 || got[0] != "hostB" {
				t.Fatalf("%s lists the player running on %v, want [hostB]", c.Space(), got)
			}
		}
	})

	t.Run("clone", func(t *testing.T) {
		a, _ := newCenterPair(t)
		if err := a.RegisterApp(ctx, player("hostA", true)); err != nil {
			t.Fatal(err)
		}
		if demoted, err := a.MoveApp(ctx, player("hostB", false), ""); err != nil || !demoted {
			t.Fatalf("MoveApp with no source = %v, %v", demoted, err)
		}
		if got := runningOn(t, a, "player"); len(got) != 2 {
			t.Fatalf("a clone's arrival is a plain register: running on %v, want both hosts", got)
		}
	})
}

// TestMoveAppIsOneDurablePush: under a synchronous write concern the
// demotion and the promotion travel to each peer in one push, and the
// move returns once a quorum holds both.
func TestMoveAppIsOneDurablePush(t *testing.T) {
	trio := newCenterTrio(t, durableConfig(WriteQuorum))
	ctx := context.Background()
	w := trio[0]
	if err := w.RegisterApp(ctx, registry.AppRecord{Name: "player", Host: "hostA", Description: appDesc("player"), Running: true}); err != nil {
		t.Fatal(err)
	}
	before := w.mPush.Value()
	demoted, err := w.MoveApp(ctx, registry.AppRecord{Name: "player", Host: "hostB", Description: appDesc("player")}, "hostA")
	if err != nil || !demoted {
		t.Fatalf("MoveApp = %v, %v", demoted, err)
	}
	if pushes := w.mPush.Value() - before; pushes != 2 {
		t.Fatalf("the move enqueued %d pushes for 2 peers, want one each", pushes)
	}
	holders := 0
	for _, peer := range trio[1:] {
		if got := runningOn(t, peer, "player"); len(got) == 1 && got[0] == "hostB" {
			holders++
		}
	}
	if holders < 1 {
		t.Fatal("the quorum move returned before any peer held both records")
	}
}
