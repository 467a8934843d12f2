package owl

import (
	"testing"

	"mdagent/internal/rdf"
)

func stdOnto(t *testing.T) *Ontology {
	t.Helper()
	o := New()
	o.StandardResourceClasses()
	return o
}

func TestSubClassOfClosure(t *testing.T) {
	o := stdOnto(t)
	tests := []struct {
		a, b string
		want bool
	}{
		{"ColorPrinter", "Printer", true},
		{"ColorPrinter", "Device", true},
		{"ColorPrinter", "Resource", true},
		{"Printer", "ColorPrinter", false},
		{"Printer", "Printer", true},
		{"Database", "Device", false},
		{"MusicFile", "Data", true},
	}
	for _, tc := range tests {
		if got := o.SubClassOf(rdf.IMCL(tc.a), rdf.IMCL(tc.b)); got != tc.want {
			t.Errorf("SubClassOf(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	// Everything is a subclass of owl:Thing.
	if !o.SubClassOf(rdf.IMCL("Database"), rdf.OWLThing) {
		t.Error("SubClassOf(Database, owl:Thing) = false")
	}
}

func TestEquivalentClassBridging(t *testing.T) {
	o := stdOnto(t)
	// A foreign vocabulary's "Imprimante" is declared equivalent to Printer.
	o.DefineClass(rdf.IMCL("Imprimante"))
	o.Assert(rdf.IMCL("Imprimante"), rdf.OWLEquivalentClass, rdf.IMCL("Printer"))
	if !o.SubClassOf(rdf.IMCL("Imprimante"), rdf.IMCL("Device")) {
		t.Error("equivalence did not bridge to superclass")
	}
	// Symmetric direction: declared object side also reaches Device.
	o.DefineClass(rdf.IMCL("Drucker"))
	o.Assert(rdf.IMCL("Printer"), rdf.OWLEquivalentClass, rdf.IMCL("Drucker"))
	if !o.SubClassOf(rdf.IMCL("Drucker"), rdf.IMCL("Device")) {
		t.Error("reverse equivalence did not bridge")
	}
}

func TestIsAAndTypesOf(t *testing.T) {
	o := stdOnto(t)
	o.AssertType(rdf.IMCL("hp821"), rdf.IMCL("ColorPrinter"))
	if !o.IsA(rdf.IMCL("hp821"), rdf.IMCL("Printer")) {
		t.Error("IsA(hp821, Printer) = false")
	}
	if !o.IsA(rdf.IMCL("hp821"), rdf.IMCL("Resource")) {
		t.Error("IsA(hp821, Resource) = false")
	}
	if o.IsA(rdf.IMCL("hp821"), rdf.IMCL("Database")) {
		t.Error("IsA(hp821, Database) = true")
	}
	types := o.TypesOf(rdf.IMCL("hp821"))
	want := map[string]bool{"ColorPrinter": true, "Printer": true, "Device": true, "Resource": true}
	found := 0
	for _, c := range types {
		if want[localName(c)] {
			found++
		}
	}
	if found != len(want) {
		t.Errorf("TypesOf = %v, want all of %v", types, want)
	}
}

func TestMaterializeTransitive(t *testing.T) {
	o := stdOnto(t)
	// Fig. 5: locatedIn is a TransitiveProperty.
	o.Assert(rdf.IMCL("printer1"), PropLocatedIn, rdf.IMCL("office821"))
	o.Assert(rdf.IMCL("office821"), PropLocatedIn, rdf.IMCL("floor8"))
	added := o.Materialize()
	if added == 0 {
		t.Fatal("Materialize added nothing")
	}
	if !o.Graph().Has(rdf.T(rdf.IMCL("printer1"), PropLocatedIn, rdf.IMCL("floor8"))) {
		t.Fatal("transitive locatedIn fact missing")
	}
	if again := o.Materialize(); again != 0 {
		t.Fatalf("second Materialize added %d, want 0 (idempotent)", again)
	}
}

func TestMaterializeSymmetricAndInverse(t *testing.T) {
	o := New()
	adjacent := rdf.IMCL("adjacentTo")
	o.DefineObjectProperty(adjacent, Symmetric())
	o.Assert(rdf.IMCL("room1"), adjacent, rdf.IMCL("room2"))

	contains := rdf.IMCL("contains")
	within := rdf.IMCL("within")
	o.DefineObjectProperty(contains, InverseOf(within))
	o.Assert(rdf.IMCL("floor8"), contains, rdf.IMCL("office821"))
	o.Assert(rdf.IMCL("office822"), within, rdf.IMCL("floor8"))

	o.Materialize()
	if !o.Graph().Has(rdf.T(rdf.IMCL("room2"), adjacent, rdf.IMCL("room1"))) {
		t.Error("symmetric closure missing")
	}
	if !o.Graph().Has(rdf.T(rdf.IMCL("office821"), within, rdf.IMCL("floor8"))) {
		t.Error("inverse (forward) closure missing")
	}
	if !o.Graph().Has(rdf.T(rdf.IMCL("floor8"), contains, rdf.IMCL("office822"))) {
		t.Error("inverse (backward) closure missing")
	}
}

func TestMaterializeTypeInheritance(t *testing.T) {
	o := stdOnto(t)
	o.AssertType(rdf.IMCL("hp821"), rdf.IMCL("ColorPrinter"))
	o.Materialize()
	if !o.Graph().Has(rdf.T(rdf.IMCL("hp821"), rdf.RDFType, rdf.IMCL("Resource"))) {
		t.Fatal("rdf:type not propagated to ancestor classes")
	}
}

func TestDomainRangeTraits(t *testing.T) {
	o := New()
	p := rdf.IMCL("drives")
	o.DefineObjectProperty(p, Domain(rdf.IMCL("Person")), Range(rdf.IMCL("Car")))
	if !o.Graph().Has(rdf.T(p, rdf.RDFSDomain, rdf.IMCL("Person"))) {
		t.Error("domain missing")
	}
	if !o.Graph().Has(rdf.T(p, rdf.RDFSRange, rdf.IMCL("Car"))) {
		t.Error("range missing")
	}
}

func TestQueryConjunctive(t *testing.T) {
	o := stdOnto(t)
	o.AssertType(rdf.IMCL("hp821"), rdf.IMCL("Printer"))
	o.Assert(rdf.IMCL("hp821"), PropLocatedIn, rdf.IMCL("office821"))
	o.AssertType(rdf.IMCL("hp822"), rdf.IMCL("Printer"))
	o.Assert(rdf.IMCL("hp822"), PropLocatedIn, rdf.IMCL("office822"))

	bs, err := o.QueryText(`(?r rdf:type imcl:Printer), (?r imcl:locatedIn ?room)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("query returned %d bindings, want 2", len(bs))
	}
}

func TestQueryTextErrors(t *testing.T) {
	o := New()
	if _, err := o.QueryText(``); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := o.QueryText(`(?r rdf:type imcl:Printer), lessThan(?x, 3)`); err == nil {
		t.Fatal("builtin in query accepted")
	}
	if _, err := o.QueryText(`(?r zz:type imcl:Printer)`); err == nil {
		t.Fatal("unknown prefix accepted")
	}
}

func TestLocalName(t *testing.T) {
	tests := []struct {
		in   rdf.Term
		want string
	}{
		{rdf.IMCL("hp821"), "hp821"},
		{rdf.IRI("http://example.org/path/thing"), "thing"},
		{rdf.IRI("nohashorslash"), "nohashorslash"},
		{rdf.Lit("plain"), "plain"},
	}
	for _, tc := range tests {
		if got := localName(tc.in); got != tc.want {
			t.Errorf("localName(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
