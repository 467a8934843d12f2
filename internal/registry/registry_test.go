package registry

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

func testDesc(name string) wsdl.Description {
	return wsdl.Description{
		Name: name,
		Services: []wsdl.Service{{
			Name: "svc",
			Ports: []wsdl.Port{{
				Name:       "p",
				Operations: []wsdl.Operation{{Name: "run"}},
			}},
		}},
		Requires: wsdl.Requirements{MinMemoryMB: 64},
	}
}

func newReg(t testing.TB) *Registry {
	t.Helper()
	r, err := New(store.OpenMemory())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegisterLookupApp(t *testing.T) {
	r := newReg(t)
	rec := AppRecord{
		Name: "player", Host: "hostA", Space: "lab",
		Description: testDesc("player"),
		Components:  []string{"ui", "codec"},
	}
	if err := r.RegisterApp(rec); err != nil {
		t.Fatal(err)
	}
	got, found, err := r.LookupApp("player", "hostA")
	if err != nil || !found {
		t.Fatalf("LookupApp = %v, %v", found, err)
	}
	if got.Space != "lab" || !got.HasComponent("codec") || got.HasComponent("gpu") {
		t.Fatalf("record = %+v", got)
	}
	if _, found, _ := r.LookupApp("player", "hostB"); found {
		t.Fatal("found app on wrong host")
	}
	if _, found, _ := r.LookupApp("nosuch", "hostA"); found {
		t.Fatal("found nonexistent app")
	}
}

func TestRegisterAppValidates(t *testing.T) {
	r := newReg(t)
	if err := r.RegisterApp(AppRecord{Host: "h"}); err == nil {
		t.Fatal("nameless app accepted")
	}
	if err := r.RegisterApp(AppRecord{Name: "x", Description: testDesc("x")}); err == nil {
		t.Fatal("hostless app accepted")
	}
	if err := r.RegisterApp(AppRecord{Name: "x", Host: "h"}); err == nil {
		t.Fatal("descriptionless app accepted")
	}
}

func TestFindAppAcrossHostsAndUnregister(t *testing.T) {
	r := newReg(t)
	for _, host := range []string{"hostB", "hostA", "hostC"} {
		rec := AppRecord{Name: "editor", Host: host, Description: testDesc("editor")}
		if err := r.RegisterApp(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := r.FindApp("editor")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Host != "hostA" || recs[2].Host != "hostC" {
		t.Fatalf("FindApp = %v", recs)
	}
	if err := r.UnregisterApp("editor", "hostB"); err != nil {
		t.Fatal(err)
	}
	recs, _ = r.FindApp("editor")
	if len(recs) != 2 {
		t.Fatalf("after unregister, FindApp = %v", recs)
	}
}

func TestAppsOnHost(t *testing.T) {
	r := newReg(t)
	for _, name := range []string{"zeta", "alpha"} {
		if err := r.RegisterApp(AppRecord{Name: name, Host: "hostA", Description: testDesc(name)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterApp(AppRecord{Name: "other", Host: "hostB", Description: testDesc("other")}); err != nil {
		t.Fatal(err)
	}
	recs, err := r.AppsOnHost("hostA")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "alpha" {
		t.Fatalf("AppsOnHost = %v", recs)
	}
}

func TestResourceRegistrationAndQuery(t *testing.T) {
	r := newReg(t)
	res := owl.Resource{
		ID: "hp821", Class: rdf.IMCL("Printer"), Substitutable: true,
		Host: "hostB", Location: "office821",
	}
	if err := r.RegisterResource(res); err != nil {
		t.Fatal(err)
	}
	got, err := r.ResourcesOnHost("hostB")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "hp821" {
		t.Fatalf("ResourcesOnHost = %v", got)
	}
	rows, err := r.Query(`(?r rdf:type imcl:Printer), (?r imcl:hostedOn ?h)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["r"] != "imcl:hp821" || rows[0]["h"] != "imcl:hostB" {
		t.Fatalf("Query rows = %v", rows)
	}
	if err := r.RegisterResource(owl.Resource{}); err == nil {
		t.Fatal("invalid resource accepted")
	}
	if _, err := r.Query(`broken(`); err == nil {
		t.Fatal("broken query accepted")
	}
}

func TestPlanRebindingThroughRegistry(t *testing.T) {
	r := newReg(t)
	src := owl.Resource{ID: "srcPrn", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "hostA"}
	dst := owl.Resource{ID: "dstPrn", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "hostB"}
	if err := r.RegisterResource(src); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterResource(dst); err != nil {
		t.Fatal(err)
	}
	plan, err := r.PlanRebinding(src, "hostB", owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Action != owl.RebindUseLocal || plan.Target.ID != "dstPrn" {
		t.Fatalf("plan = %+v", plan)
	}
	// Syntactic mode misses the subclass printer.
	plan, err = r.PlanRebinding(src, "hostB", owl.MatchSyntactic)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Action == owl.RebindUseLocal {
		t.Fatalf("syntactic plan unexpectedly matched: %+v", plan)
	}
}

func TestDeviceProfiles(t *testing.T) {
	r := newReg(t)
	dev := wsdl.DeviceProfile{Host: "hostB", ScreenWidth: 1024, ScreenHeight: 768, MemoryMB: 512, HasAudio: true}
	if err := r.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Device("hostB")
	if !ok || got.ScreenWidth != 1024 {
		t.Fatalf("Device = %+v, %v", got, ok)
	}
	if _, ok := r.Device("ghost"); ok {
		t.Fatal("ghost device found")
	}
	if err := r.RegisterDevice(wsdl.DeviceProfile{}); err == nil {
		t.Fatal("hostless device accepted")
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.log")
	db, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.RegisterApp(AppRecord{Name: "player", Host: "hostA", Description: testDesc("player")}); err != nil {
		t.Fatal(err)
	}
	if err := r1.RegisterResource(owl.Resource{ID: "prn", Class: rdf.IMCL("Printer"), Host: "hostA", Substitutable: true}); err != nil {
		t.Fatal(err)
	}
	if err := r1.RegisterDevice(wsdl.DeviceProfile{Host: "hostA", MemoryMB: 256}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r2, err := New(db2)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := r2.LookupApp("player", "hostA"); !found {
		t.Fatal("app lost across restart")
	}
	res, err := r2.ResourcesOnHost("hostA")
	if err != nil || len(res) != 1 {
		t.Fatalf("resources lost across restart: %v, %v", res, err)
	}
	if _, ok := r2.Device("hostA"); !ok {
		t.Fatal("device lost across restart")
	}
	// Ontology must be rebuilt: a semantic query works post-restart.
	rows, err := r2.Query(`(?r rdf:type imcl:Printer)`)
	if err != nil || len(rows) != 1 {
		t.Fatalf("ontology not rebuilt: %v, %v", rows, err)
	}
}

func TestRemoteClientOverLocalFabric(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk)
	if _, err := net.AddHost("hostA", "lab", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("regHost", "lab", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(net)
	defer fab.Close()

	srvEp, err := fab.Attach("registry", "regHost")
	if err != nil {
		t.Fatal(err)
	}
	newReg(t).Serve(srvEp)

	cliEp, err := fab.Attach("agentA", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cliEp, "registry")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := cli.RegisterApp(ctx, AppRecord{Name: "player", Host: "hostA", Description: testDesc("player")}); err != nil {
		t.Fatal(err)
	}
	rec, found, err := cli.LookupApp(ctx, "player", "hostA")
	if err != nil || !found || rec.Name != "player" {
		t.Fatalf("remote LookupApp = %+v, %v, %v", rec, found, err)
	}

	if err := cli.RegisterResource(ctx, owl.Resource{ID: "prn", Class: rdf.IMCL("Printer"), Host: "hostA", Substitutable: true}); err != nil {
		t.Fatal(err)
	}

	if err := cli.RegisterDevice(ctx, wsdl.DeviceProfile{Host: "hostA", MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	dev, ok, err := cli.Device(ctx, "hostA")
	if err != nil || !ok || dev.MemoryMB != 128 {
		t.Fatalf("remote Device = %+v, %v, %v", dev, ok, err)
	}

	prn := owl.Resource{ID: "prn", Class: rdf.IMCL("Printer"), Host: "hostA", Substitutable: true}
	plan, err := cli.PlanRebinding(ctx, prn, "hostA", owl.MatchSemantic)
	if err != nil || plan.Action != owl.RebindUseLocal {
		t.Fatalf("remote PlanRebinding = %+v, %v", plan, err)
	}
	mp, err := cli.PlanMove(ctx, "player", "hostA", []owl.Resource{prn, prn}, owl.MatchSemantic)
	if err != nil || !mp.DestFound || mp.Dest.Name != "player" || len(mp.Rebindings) != 2 || !reflect.DeepEqual(mp.Rebindings[1], plan) {
		t.Fatalf("remote PlanMove = %+v, %v", mp, err)
	}

	// The commit of a move hostA -> hostB: hostA's record demoted,
	// hostB's registered running, the source told it has nothing to do.
	if err := cli.RegisterApp(ctx, AppRecord{Name: "player", Host: "hostA", Description: testDesc("player"), Running: true}); err != nil {
		t.Fatal(err)
	}
	demoted, err := cli.MoveApp(ctx, AppRecord{Name: "player", Host: "hostB", Description: testDesc("player")}, "hostA")
	if err != nil || !demoted {
		t.Fatalf("remote MoveApp = %v, %v", demoted, err)
	}
	if a, _, _ := cli.LookupApp(ctx, "player", "hostA"); a.Running {
		t.Fatal("MoveApp left the source record running")
	}
	if b, found, _ := cli.LookupApp(ctx, "player", "hostB"); !found || !b.Running {
		t.Fatalf("MoveApp did not register the destination running: %+v", b)
	}
	if err := cli.UnregisterApp(ctx, "player", "hostA"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cli.LookupApp(ctx, "player", "hostA"); found {
		t.Fatal("app survived remote unregister")
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	defer fab.Close()
	srvEp, err := fab.Attach("registry", "")
	if err != nil {
		t.Fatal(err)
	}
	newReg(t).Serve(srvEp)
	cliEp, err := fab.Attach("cli", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cliEp, "registry")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cli.RegisterApp(ctx, AppRecord{}); err == nil {
		t.Fatal("invalid app accepted remotely")
	}
	if _, err := cli.MoveApp(ctx, AppRecord{Host: "hostB"}, "hostA"); err == nil {
		t.Fatal("nameless move accepted remotely")
	}
}
