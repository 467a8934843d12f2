package owl

import (
	"testing"
	"testing/quick"

	"mdagent/internal/rdf"
)

// Paper §4.4 exemplars:
//
//	printer:  substitutable, not transferable
//	database: neither substitutable nor transferable
//	PDA:      transferable, not substitutable
func printerRes(id, host, model string) Resource {
	return Resource{
		ID: id, Class: rdf.IMCL("Printer"), Substitutable: true,
		Host: host, Attrs: map[string]string{"name": model},
	}
}

func TestSemanticCompatibleAcrossHierarchy(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	src := printerRes("srcPrinter", "hostA", "hp LaserJet 4")
	dstSub := Resource{ID: "d1", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "hostB",
		Attrs: map[string]string{"name": "Canon iR"}}
	dstSuper := Resource{ID: "d2", Class: rdf.IMCL("Device"), Host: "hostB"}
	dstOther := Resource{ID: "d3", Class: rdf.IMCL("Database"), Host: "hostB"}

	if !m.Compatible(src, dstSub) {
		t.Error("subclass printer not compatible semantically")
	}
	if !m.Compatible(src, dstSuper) {
		t.Error("superclass device not compatible semantically")
	}
	if m.Compatible(src, dstOther) {
		t.Error("database compatible with printer")
	}
}

func TestSyntacticRequiresExactClassAndName(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSyntactic)
	src := printerRes("srcPrinter", "hostA", "hp LaserJet 4")
	sameClassDiffName := printerRes("d1", "hostB", "Canon iR")
	sameEverything := printerRes("d2", "hostB", "hp LaserJet 4")
	subclass := Resource{ID: "d3", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "hostB"}

	if m.Compatible(src, sameClassDiffName) {
		t.Error("syntactic matched different names")
	}
	if !m.Compatible(src, sameEverything) {
		t.Error("syntactic rejected identical resource")
	}
	if m.Compatible(src, subclass) {
		t.Error("syntactic matched subclass (no hierarchy knowledge)")
	}
	// When either side lacks a name attribute, class equality suffices.
	noName := Resource{ID: "d4", Class: rdf.IMCL("Printer"), Substitutable: true, Host: "hostB"}
	if !m.Compatible(src, noName) {
		t.Error("syntactic rejected same-class resource without name")
	}
}

func TestSemanticBeatsSyntacticOnRenamedResources(t *testing.T) {
	// The paper's §3.3 motivation: "different hosts often have the same
	// resources but with different names". Candidate printers at the
	// destination carry different model names and subclasses; semantic
	// matching must find strictly more matches than syntactic.
	o := stdOnto(t)
	src := printerRes("srcPrinter", "hostA", "hp LaserJet 4")
	dest := []Resource{
		printerRes("p1", "hostB", "Canon iR2020"),
		{ID: "p2", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "hostB",
			Attrs: map[string]string{"name": "Xerox Phaser"}},
		{ID: "db", Class: rdf.IMCL("Database"), Host: "hostB"},
	}
	sem := NewMatcher(o, MatchSemantic)
	syn := NewMatcher(o, MatchSyntactic)
	semHits, synHits := 0, 0
	for _, d := range dest {
		if sem.Compatible(src, d) {
			semHits++
		}
		if syn.Compatible(src, d) {
			synHits++
		}
	}
	if semHits != 2 || synHits != 0 {
		t.Fatalf("semantic hits = %d (want 2), syntactic hits = %d (want 0)", semHits, synHits)
	}
}

func TestCanSubstituteRespectsSubstitutability(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	// A database is compatible with another database but NOT substitutable.
	src := Resource{ID: "db1", Class: rdf.IMCL("Database"), Host: "hostA"}
	dst := Resource{ID: "db2", Class: rdf.IMCL("Database"), Host: "hostB"}
	if !m.Compatible(src, dst) {
		t.Fatal("same-class databases not compatible")
	}
	if m.CanSubstitute(src, dst) {
		t.Fatal("unsubstitutable database substituted")
	}
}

func TestPlanRebindingUseLocal(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	src := printerRes("srcPrinter", "hostA", "hp")
	plan := m.PlanRebinding(src, []Resource{printerRes("dstPrinter", "hostB", "canon")})
	if plan.Action != RebindUseLocal {
		t.Fatalf("action = %v, want use-local (%s)", plan.Action, plan.Reason)
	}
	if plan.Target.ID != "dstPrinter" {
		t.Fatalf("target = %s", plan.Target.ID)
	}
}

func TestPlanRebindingCarryTransferable(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	// A PDA is transferable but not substitutable.
	src := Resource{ID: "pda1", Class: rdf.IMCL("PDA"), Transferable: true, Host: "hostA", SizeBytes: 1 << 20}
	plan := m.PlanRebinding(src, []Resource{printerRes("dstPrinter", "hostB", "x")})
	if plan.Action != RebindCarry {
		t.Fatalf("action = %v, want carry (%s)", plan.Action, plan.Reason)
	}
}

func TestPlanRebindingRemoteURLForData(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	// The Fig. 8 scenario: music files absent at the destination are
	// "played remotely through URL in the original host". Model the music
	// as untransferable data (e.g. licensing pins it to the source).
	src := Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 4 << 20}
	o.AssertType(src.Term(), src.Class)
	plan := m.PlanRebinding(src, nil)
	if plan.Action != RebindRemote {
		t.Fatalf("action = %v, want remote-url (%s)", plan.Action, plan.Reason)
	}
}

func TestPlanRebindingImpossible(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	// Database: neither transferable nor substitutable, no local twin.
	src := Resource{ID: "db1", Class: rdf.IMCL("Database"), Host: "hostA"}
	o.AssertType(src.Term(), src.Class)
	plan := m.PlanRebinding(src, nil)
	if plan.Action != RebindImpossible {
		t.Fatalf("action = %v, want impossible (%s)", plan.Action, plan.Reason)
	}
}

func TestResourceTriplesRoundTrip(t *testing.T) {
	o := stdOnto(t)
	src := Resource{
		ID: "hp821", Class: rdf.IMCL("ColorPrinter"),
		Substitutable: true, Transferable: false,
		Host: "hostA", Location: "office821", SizeBytes: 0,
		Attrs: map[string]string{"name": "hp LaserJet", "dpi": "600"},
	}
	if err := o.AddResource(src); err != nil {
		t.Fatal(err)
	}
	got, err := o.ResourceFromGraph("hp821")
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != src.Class || got.Host != src.Host || got.Location != src.Location {
		t.Fatalf("round trip = %+v", got)
	}
	if !got.Substitutable || got.Transferable {
		t.Fatalf("flags lost: %+v", got)
	}
	if got.Attrs["name"] != "hp LaserJet" || got.Attrs["dpi"] != "600" {
		t.Fatalf("attrs lost: %v", got.Attrs)
	}
}

func TestResourceFromGraphPrefersMostSpecificType(t *testing.T) {
	o := stdOnto(t)
	r := Resource{ID: "hp", Class: rdf.IMCL("ColorPrinter"), Substitutable: true, Host: "h"}
	if err := o.AddResource(r); err != nil {
		t.Fatal(err)
	}
	o.Materialize() // adds Printer, Device, Resource types
	got, err := o.ResourceFromGraph("hp")
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != rdf.IMCL("ColorPrinter") {
		t.Fatalf("class = %v, want most specific ColorPrinter", got.Class)
	}
}

func TestResourceValidate(t *testing.T) {
	cases := []struct {
		name string
		r    Resource
	}{
		{"noID", Resource{Class: rdf.IMCL("Printer"), Host: "h"}},
		{"noClass", Resource{ID: "x", Host: "h"}},
		{"noHost", Resource{ID: "x", Class: rdf.IMCL("Printer")}},
		{"negativeSize", Resource{ID: "x", Class: rdf.IMCL("Printer"), Host: "h", SizeBytes: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.r.Validate(); err == nil {
				t.Fatal("invalid resource accepted")
			}
		})
	}
	if err := NewMatcher(stdOnto(t), MatchSemantic).onto.AddResource(Resource{}); err == nil {
		t.Fatal("AddResource accepted invalid resource")
	}
}

func TestResourcesOnHost(t *testing.T) {
	o := stdOnto(t)
	for _, id := range []string{"b-res", "a-res"} {
		if err := o.AddResource(Resource{ID: id, Class: rdf.IMCL("Printer"), Host: "hostA"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddResource(Resource{ID: "other", Class: rdf.IMCL("Printer"), Host: "hostB"}); err != nil {
		t.Fatal(err)
	}
	got := o.ResourcesOnHost("hostA")
	if len(got) != 2 || got[0] != "a-res" || got[1] != "b-res" {
		t.Fatalf("ResourcesOnHost = %v, want sorted [a-res b-res]", got)
	}
}

func TestMatchModeString(t *testing.T) {
	if MatchSyntactic.String() != "syntactic" || MatchSemantic.String() != "semantic" {
		t.Fatal("MatchMode.String wrong")
	}
	if MatchMode(0).String() != "invalid" {
		t.Fatal("zero MatchMode not invalid")
	}
	for _, a := range []RebindAction{RebindUseLocal, RebindCarry, RebindRemote, RebindImpossible} {
		if a.String() == "invalid" {
			t.Fatalf("action %d renders invalid", a)
		}
	}
	if RebindAction(0).String() != "invalid" {
		t.Fatal("zero RebindAction not invalid")
	}
}

// Property: semantic compatibility is symmetric (subclass either way).
func TestSemanticCompatibilitySymmetric(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	classes := []rdf.Term{
		rdf.IMCL("Resource"), rdf.IMCL("Device"), rdf.IMCL("Printer"),
		rdf.IMCL("ColorPrinter"), rdf.IMCL("Database"), rdf.IMCL("MusicFile"),
	}
	f := func(i, j uint8) bool {
		a := Resource{ID: "a", Class: classes[int(i)%len(classes)], Host: "h1"}
		b := Resource{ID: "b", Class: classes[int(j)%len(classes)], Host: "h2"}
		return m.Compatible(a, b) == m.Compatible(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlanRebindingSameResourceAtDestination(t *testing.T) {
	o := stdOnto(t)
	m := NewMatcher(o, MatchSemantic)
	// The way back from TestPlanRebindingRemoteURLForData: the app returns
	// to the host that owns the song. The song is not substitutable, but
	// the destination's song1 is not a substitute — it is the song.
	src := Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 4 << 20,
		Attrs: map[string]string{"url": "mdagent://hostA/media/song1"}}
	o.AssertType(src.Term(), src.Class)
	own := Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 4 << 20}
	other := Resource{ID: "song2", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 1 << 20}
	plan := m.PlanRebinding(src, []Resource{other, own})
	if plan.Action != RebindUseLocal || plan.Target.ID != "song1" {
		t.Fatalf("plan = %v -> %q, want use-local song1 (%s)", plan.Action, plan.Target.ID, plan.Reason)
	}
	if _, viaURL := plan.Target.Attrs["url"]; viaURL {
		t.Fatalf("target still carries a url: %v", plan.Target.Attrs)
	}
	// Another song of the same class is still no stand-in.
	if plan := m.PlanRebinding(src, []Resource{other}); plan.Action != RebindRemote {
		t.Fatalf("plan against a different song = %v, want remote-url (%s)", plan.Action, plan.Reason)
	}
}
