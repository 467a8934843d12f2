package owl

import (
	"testing"

	"mdagent/internal/rdf"
)

// stdOnto returns the shared standard class tree, which tests only read.
func stdOnto(t *testing.T) *Ontology {
	t.Helper()
	return Classes()
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
	// A tree of its own: the shared standard tree is read-only.
	o := New()
	o.DefineClass(rdf.IMCL("Printer"), rdf.IMCL("Device"))
	// A foreign vocabulary's "Imprimante" is declared equivalent to Printer.
	o.DefineClass(rdf.IMCL("Imprimante"))
	o.Graph().Add(rdf.T(rdf.IMCL("Imprimante"), rdf.OWLEquivalentClass, rdf.IMCL("Printer")))
	if !o.SubClassOf(rdf.IMCL("Imprimante"), rdf.IMCL("Device")) {
		t.Error("equivalence did not bridge to superclass")
	}
	// Symmetric direction: declared object side also reaches Device.
	o.DefineClass(rdf.IMCL("Drucker"))
	o.Graph().Add(rdf.T(rdf.IMCL("Printer"), rdf.OWLEquivalentClass, rdf.IMCL("Drucker")))
	if !o.SubClassOf(rdf.IMCL("Drucker"), rdf.IMCL("Device")) {
		t.Error("reverse equivalence did not bridge")
	}
}
