package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// TestRewrittenResourceReadsAsItsRecord: a resource registered again —
// moved to another host, then with a flipped axis — reads back as its
// newest record and nothing else: the old host no longer lists it, the
// new host lists exactly the record, and a plan never binds it at the
// host it left.
func TestRewrittenResourceReadsAsItsRecord(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach("registry", "")
	if err != nil {
		t.Fatal(err)
	}
	c, ctx := volatileCenter("", ep, testConfig()), context.Background()
	src := owl.Resource{ID: "myPrn", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "hostC"}
	for _, prn := range []owl.Resource{
		{ID: "prn", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "hostA", Attrs: map[string]string{"dpi": "300"}},
		{ID: "prn", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "hostB", Attrs: map[string]string{"dpi": "300"}},
		{ID: "prn", Class: rdf.IMCL("Printer"), Substitutable: false, Host: "hostB", Attrs: map[string]string{"dpi": "600"}},
	} {
		if err := c.RegisterResource(ctx, prn); err != nil {
			t.Fatal(err)
		}
		other := map[string]string{"hostA": "hostB", "hostB": "hostA"}[prn.Host]
		if got := c.ResourcesOnHost(prn.Host); !reflect.DeepEqual(got, []owl.Resource{prn}) {
			t.Fatalf("ResourcesOnHost(%s) = %+v, want exactly %+v", prn.Host, got, prn)
		}
		if got := c.ResourcesOnHost(other); len(got) != 0 {
			t.Fatalf("ResourcesOnHost(%s) = %+v after prn went to %s", other, got, prn.Host)
		}
		plan, err := c.PlanMove(ctx, "player", other, []owl.Resource{src}, owl.MatchSemantic)
		if err != nil {
			t.Fatal(err)
		}
		if rb := plan.Rebindings[0]; rb.Action == owl.RebindUseLocal {
			t.Fatalf("plan at %s binds %+v, which lives on %s", other, rb.Target, prn.Host)
		}
		plan, err = c.PlanMove(ctx, "player", prn.Host, []owl.Resource{src}, owl.MatchSemantic)
		if err != nil {
			t.Fatal(err)
		}
		if rb := plan.Rebindings[0]; rb.Action != owl.RebindUseLocal || !reflect.DeepEqual(rb.Target, prn) {
			t.Fatalf("plan at %s = %v -> %+v, want use-local %+v", prn.Host, rb.Action, rb.Target, prn)
		}
	}
}

// TestPeerRecordFailingValidationIsRefused: a peer's push of a record
// that no local write would make — an app record with no name — is NACKed
// in its batch result, installed nowhere and persisted nowhere; offered
// by anti-entropy, it is refused every round without holding back the
// records after it; one already on disk (from a build that stored it)
// stays out of the reads.
func TestPeerRecordFailingValidationIsRefused(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	c := openDiskCenter(t, fab, t.TempDir(), "alpha", testConfig())
	peer, err := fab.Attach(CenterEndpointName("beta"), "")
	if err != nil {
		t.Fatal(err)
	}
	bad := Record{Key: "app/hostA/", Kind: RecordApp, Origin: "beta", Version: vclock.Version{"beta": 1},
		App: registry.AppRecord{Host: "hostA", Description: appDesc("player")}}
	push := encodeFedBatch([]pushItem{{kind: fedPush, payload: transport.MustEncode(pushMsg{From: "beta", Records: []Record{bad}})}})
	raw, err := peer.Request(context.Background(), CenterEndpointName("alpha"), MsgFedBatch, push)
	if err != nil {
		t.Fatal(err)
	}
	results, err := decodeFedBatchReply(raw.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0] == "" {
		t.Fatalf("batch results = %q, want the item refused", results)
	}
	c.mu.Lock()
	_, held := c.records[bad.Key]
	c.mu.Unlock()
	if held {
		t.Fatal("the refused record is in the replication table")
	}
	if keys := c.db.Keys(fedKeyPrefix); len(keys) != 0 {
		t.Fatalf("the refused record was persisted: %v", keys)
	}

	// Anti-entropy re-offers it every round; each round refuses it and
	// still applies the records after it.
	good := Record{Key: "app/hostA/player", Kind: RecordApp, Origin: "beta", Version: vclock.Version{"beta": 1},
		App: registry.AppRecord{Name: "player", Host: "hostA", Description: appDesc("player")}}
	peer.Handle(MsgFedDigest, func(transport.Message) ([]byte, error) {
		return transport.Encode(digestReply{Records: []Record{bad, good}})
	})
	c.AddPeer("beta", CenterEndpointName("beta"))
	for round := 1; round <= 2; round++ {
		if err := c.SyncNow(context.Background()); err == nil {
			t.Fatalf("round %d: anti-entropy accepted the invalid record", round)
		}
		if apps := c.Apps(nil); len(apps) != 1 || apps[0].Name != "player" {
			t.Fatalf("round %d: apps = %+v, want the valid record only", round, apps)
		}
	}
	if keys := c.db.Keys(fedKeyPrefix); len(keys) != 1 || keys[0] != fedKeyPrefix+good.Key {
		t.Fatalf("persisted keys = %v, want the valid record only", keys)
	}

	c.reopen(func(db *store.Store) {
		if err := db.Put(fedKeyPrefix+bad.Key, transport.MustEncode(bad)); err != nil {
			t.Fatal(err)
		}
	})
	if apps := c.Apps(nil); len(apps) != 1 || apps[0].Name != "player" {
		t.Fatalf("after a reopen over a stored invalid record, apps = %+v", apps)
	}
}

// TestPlanMoveIgnoresAppCount: a plan reads the destination's resources
// through the hosted index, not by scanning the records, so neither what
// it allocates nor how long it takes grows with the number of app
// records the center holds. A scan allocates nothing per record, so time
// is the second guard: the fastest of many plans over 10,000 app records
// must stay within a few times the fastest over 10 (a scan is some 50
// times slower there).
func TestPlanMoveIgnoresAppCount(t *testing.T) {
	ctx := context.Background()
	resources := []owl.Resource{{ID: "srcPrn", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "host-001"}}
	planner := func(apps int) func() {
		fab := transport.NewLocalFabric(nil)
		t.Cleanup(func() { fab.Close() })
		ep, err := fab.Attach(fmt.Sprintf("registry-%d", apps), "")
		if err != nil {
			t.Fatal(err)
		}
		c := volatileCenter("", ep, testConfig())
		for i := 0; i < apps; i++ {
			rec := registry.AppRecord{Name: fmt.Sprintf("app-%d", i%10), Host: fmt.Sprintf("host-%04d", i/10), Description: appDesc("app")}
			if err := c.RegisterApp(ctx, rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RegisterResource(ctx, owl.Resource{ID: "dstPrn", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "host-0000"}); err != nil {
			t.Fatal(err)
		}
		return func() {
			plan, err := c.PlanMove(ctx, "app-3", "host-0000", resources, owl.MatchSemantic)
			if err != nil || !plan.DestFound || plan.Rebindings[0].Action != owl.RebindUseLocal {
				t.Fatalf("plan = %+v, %v", plan, err)
			}
		}
	}
	few, many := planner(10), planner(1000)
	if a, b := testing.AllocsPerRun(100, few), testing.AllocsPerRun(100, many); a != b && !raceEnabled {
		t.Fatalf("PlanMove allocates %v with 10 app records and %v with 1,000", a, b)
	}
	fastest := func(plan func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 300; i++ {
			start := time.Now()
			plan()
			best = min(best, time.Since(start))
		}
		return best
	}
	if a, b := fastest(few), fastest(planner(10000)); b > 5*a {
		t.Fatalf("PlanMove takes %v at best with 10,000 app records, %v with 10", b, a)
	}
}

// TestHostedIndexUnderConcurrentWrites: writers moving resources between
// hosts race readers planning against those hosts; afterwards every live
// resource is listed exactly once, under the host its record names.
func TestHostedIndexUnderConcurrentWrites(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach("registry", "")
	if err != nil {
		t.Fatal(err)
	}
	c, ctx := volatileCenter("", ep, testConfig()), context.Background()
	hosts := []string{"hostA", "hostB", "hostC"}
	src := []owl.Resource{{ID: "mine", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "hostZ"}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res := owl.Resource{ID: fmt.Sprintf("prn-%d", i%7), Class: rdf.IMCL("Printer"), Host: hosts[(i+w)%len(hosts)]}
				if err := c.RegisterResource(ctx, res); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.PlanMove(ctx, "player", hosts[i%len(hosts)], src, owl.MatchSemantic); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]string)
	for _, h := range hosts {
		for _, res := range c.ResourcesOnHost(h) {
			if prev, dup := seen[res.ID]; dup || res.Host != h {
				t.Fatalf("%s listed on %s (record says %s; also on %q)", res.ID, h, res.Host, prev)
			}
			seen[res.ID] = h
		}
	}
	if len(seen) != 7 {
		t.Fatalf("listed %d resources, want 7: %v", len(seen), seen)
	}
}
