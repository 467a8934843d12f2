package registry_test

// The registry's reads and writes against the center that holds the
// records: a volatile one (no store, no peers), read directly.

import (
	"context"
	"reflect"
	"testing"

	"mdagent/internal/cluster"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// newCenter returns a volatile registry center with no peers.
func newCenter(t testing.TB) *cluster.Center {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach("registry", "")
	if err != nil {
		t.Fatal(err)
	}
	return serveCenter(t, ep)
}

func TestRegisterLookupApp(t *testing.T) {
	c, ctx := newCenter(t), context.Background()
	rec := registry.AppRecord{
		Name: "player", Host: "hostA", Space: "lab",
		Description: desc("player"),
		Components:  []string{"ui", "codec"},
	}
	if err := c.RegisterApp(ctx, rec); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.LookupApp(ctx, "player", "hostA")
	if err != nil || !found {
		t.Fatalf("LookupApp = %v, %v", found, err)
	}
	if got.Space != "lab" || !got.HasComponent("codec") || got.HasComponent("gpu") {
		t.Fatalf("record = %+v", got)
	}
	if _, found, _ := c.LookupApp(ctx, "player", "hostB"); found {
		t.Fatal("found app on wrong host")
	}
	if _, found, _ := c.LookupApp(ctx, "nosuch", "hostA"); found {
		t.Fatal("found nonexistent app")
	}
}

// The center hands out copies and keeps copies: mutating a record a read
// returned, or the caller's own record after RegisterApp, changes no
// later read.
func TestAppReadsAreCopies(t *testing.T) {
	fresh := func() registry.AppRecord {
		return registry.AppRecord{
			Name: "player", Host: "hostA", Space: "lab",
			Description: desc("player"),
			Components:  []string{"ui", "codec"},
		}
	}
	mutate := func(rec *registry.AppRecord) {
		rec.Components[0] = "mutated"
		rec.Description.Services[0].Ports[0].Name = "mutated"
		rec.Description.Services[0].Ports[0].Operations[0].Name = "mutated"
	}
	c, ctx := newCenter(t), context.Background()
	mine := fresh()
	if err := c.RegisterApp(ctx, mine); err != nil {
		t.Fatal(err)
	}
	mutate(&mine)
	check := func(after string) {
		t.Helper()
		got, found, err := c.LookupApp(ctx, "player", "hostA")
		if err != nil || !found || !reflect.DeepEqual(got, fresh()) {
			t.Fatalf("after mutating %s: LookupApp = %+v, %v, %v", after, got, found, err)
		}
	}
	check("the registered record")

	got, _, _ := c.LookupApp(ctx, "player", "hostA")
	mutate(&got)
	check("a LookupApp result")
	apps := c.Apps(nil)
	if len(apps) != 1 {
		t.Fatalf("Apps = %v", apps)
	}
	mutate(&apps[0])
	check("an Apps result")
	onHost := c.Apps(func(r registry.AppRecord) bool { return r.Host == "hostA" })
	if len(onHost) != 1 {
		t.Fatalf("Apps on hostA = %v", onHost)
	}
	mutate(&onHost[0])
	check("a filtered Apps result")
	plan, err := c.PlanMove(ctx, "player", "hostA", nil, owl.MatchSemantic)
	if err != nil || !plan.DestFound {
		t.Fatalf("PlanMove = %+v, %v", plan, err)
	}
	mutate(&plan.Dest)
	check("a PlanMove destination")
}

func TestRegisterAppValidates(t *testing.T) {
	c, ctx := newCenter(t), context.Background()
	if err := c.RegisterApp(ctx, registry.AppRecord{Host: "h"}); err == nil {
		t.Fatal("nameless app accepted")
	}
	if err := c.RegisterApp(ctx, registry.AppRecord{Name: "x", Description: desc("x")}); err == nil {
		t.Fatal("hostless app accepted")
	}
	if err := c.RegisterApp(ctx, registry.AppRecord{Name: "x", Host: "h"}); err == nil {
		t.Fatal("descriptionless app accepted")
	}
	if apps := c.Apps(nil); len(apps) != 0 {
		t.Fatalf("refused registrations stored %v", apps)
	}
}

func TestFindAppAcrossHostsAndUnregister(t *testing.T) {
	c, ctx := newCenter(t), context.Background()
	for _, host := range []string{"hostB", "hostA", "hostC"} {
		rec := registry.AppRecord{Name: "editor", Host: host, Description: desc("editor")}
		if err := c.RegisterApp(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	editors := func(r registry.AppRecord) bool { return r.Name == "editor" }
	recs := c.Apps(editors)
	if len(recs) != 3 || recs[0].Host != "hostA" || recs[2].Host != "hostC" {
		t.Fatalf("Apps(editor) = %v", recs)
	}
	if err := c.UnregisterApp(ctx, "editor", "hostB"); err != nil {
		t.Fatal(err)
	}
	if recs = c.Apps(editors); len(recs) != 2 {
		t.Fatalf("after unregister, Apps(editor) = %v", recs)
	}
}

func TestAppsOnHost(t *testing.T) {
	c, ctx := newCenter(t), context.Background()
	for _, name := range []string{"zeta", "alpha"} {
		if err := c.RegisterApp(ctx, registry.AppRecord{Name: name, Host: "hostA", Description: desc(name)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RegisterApp(ctx, registry.AppRecord{Name: "other", Host: "hostB", Description: desc("other")}); err != nil {
		t.Fatal(err)
	}
	recs := c.Apps(func(r registry.AppRecord) bool { return r.Host == "hostA" })
	if len(recs) != 2 || recs[0].Name != "alpha" {
		t.Fatalf("Apps on hostA = %v", recs)
	}
}

// TestResourceRegistrationAndQuery: a host's resources read back as
// registered, sorted by ID, as copies; an invalid one is refused.
func TestResourceRegistrationAndQuery(t *testing.T) {
	c, ctx := newCenter(t), context.Background()
	res := owl.Resource{
		ID: "hp821", Class: rdf.IMCL("Printer"), Substitutable: true,
		Host: "hostB", Location: "office821", Attrs: map[string]string{"name": "hp"},
	}
	for _, r := range []owl.Resource{res, {ID: "a-prn", Class: rdf.IMCL("ColorPrinter"), Host: "hostB"},
		{ID: "other", Class: rdf.IMCL("Printer"), Host: "hostA"}} {
		if err := c.RegisterResource(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	res.Attrs["name"] = "mutated"
	got := c.ResourcesOnHost("hostB")
	if len(got) != 2 || got[0].ID != "a-prn" || got[1].ID != "hp821" || got[1].Attrs["name"] != "hp" {
		t.Fatalf("ResourcesOnHost = %+v", got)
	}
	got[1].Attrs["name"] = "mutated"
	if again := c.ResourcesOnHost("hostB"); again[1].Attrs["name"] != "hp" {
		t.Fatalf("mutating a read changed the record: %+v", again[1])
	}
	if err := c.RegisterResource(ctx, owl.Resource{}); err == nil {
		t.Fatal("invalid resource accepted")
	}
}

func TestPlanRebindingThroughRegistry(t *testing.T) {
	c, ctx := newCenter(t), context.Background()
	src := owl.Resource{ID: "srcPrn", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "hostA"}
	dst := owl.Resource{ID: "dstPrn", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "hostB"}
	for _, r := range []owl.Resource{src, dst} {
		if err := c.RegisterResource(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if plan := c.PlanRebinding(src, "hostB", owl.MatchSemantic); plan.Action != owl.RebindUseLocal || plan.Target.ID != "dstPrn" {
		t.Fatalf("plan = %+v", plan)
	}
	// Syntactic mode misses the subclass printer.
	if plan := c.PlanRebinding(src, "hostB", owl.MatchSyntactic); plan.Action == owl.RebindUseLocal {
		t.Fatalf("syntactic plan unexpectedly matched: %+v", plan)
	}
}

func TestDeviceProfiles(t *testing.T) {
	c, ctx := newCenter(t), context.Background()
	dev := wsdl.DeviceProfile{Host: "hostB", ScreenWidth: 1024, ScreenHeight: 768, MemoryMB: 512, HasAudio: true}
	if err := c.RegisterDevice(ctx, dev); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Device("hostB")
	if !ok || got.ScreenWidth != 1024 {
		t.Fatalf("Device = %+v, %v", got, ok)
	}
	if _, ok := c.Device("ghost"); ok {
		t.Fatal("ghost device found")
	}
	if err := c.RegisterDevice(ctx, wsdl.DeviceProfile{}); err == nil {
		t.Fatal("hostless device accepted")
	}
}
