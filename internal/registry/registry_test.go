package registry

import (
	"reflect"
	"testing"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
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

func TestRegisterLookupApp(t *testing.T) {
	r := New()
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

// The index hands out copies and keeps copies: mutating a record a read
// returned, or the caller's own record after RegisterApp, changes no
// later read.
func TestAppReadsAreCopies(t *testing.T) {
	fresh := func() AppRecord {
		return AppRecord{
			Name: "player", Host: "hostA", Space: "lab",
			Description: testDesc("player"),
			Components:  []string{"ui", "codec"},
		}
	}
	mutate := func(rec *AppRecord) {
		rec.Components[0] = "mutated"
		rec.Description.Services[0].Ports[0].Name = "mutated"
		rec.Description.Services[0].Ports[0].Operations[0].Name = "mutated"
	}
	r := New()
	mine := fresh()
	if err := r.RegisterApp(mine); err != nil {
		t.Fatal(err)
	}
	mutate(&mine)
	check := func(after string) {
		t.Helper()
		got, found, err := r.LookupApp("player", "hostA")
		if err != nil || !found || !reflect.DeepEqual(got, fresh()) {
			t.Fatalf("after mutating %s: LookupApp = %+v, %v, %v", after, got, found, err)
		}
	}
	check("the registered record")

	got, _, _ := r.LookupApp("player", "hostA")
	mutate(&got)
	check("a LookupApp result")
	apps, err := r.Apps()
	if err != nil || len(apps) != 1 {
		t.Fatalf("Apps = %v, %v", apps, err)
	}
	mutate(&apps[0])
	check("an Apps result")
	onHost, err := r.AppsOnHost("hostA")
	if err != nil || len(onHost) != 1 {
		t.Fatalf("AppsOnHost = %v, %v", onHost, err)
	}
	mutate(&onHost[0])
	check("an AppsOnHost result")
}

func TestRegisterAppValidates(t *testing.T) {
	r := New()
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
	r := New()
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
	r := New()
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
	r := New()
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
	r := New()
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
	r := New()
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
