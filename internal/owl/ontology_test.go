package owl

import (
	"sync"
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
	o.g.Add(rdf.T(rdf.IMCL("Imprimante"), rdf.OWLEquivalentClass, rdf.IMCL("Printer")))
	if !o.SubClassOf(rdf.IMCL("Imprimante"), rdf.IMCL("Device")) {
		t.Error("equivalence did not bridge to superclass")
	}
	// Symmetric direction: declared object side also reaches Device.
	o.DefineClass(rdf.IMCL("Drucker"))
	o.g.Add(rdf.T(rdf.IMCL("Printer"), rdf.OWLEquivalentClass, rdf.IMCL("Drucker")))
	if !o.SubClassOf(rdf.IMCL("Drucker"), rdf.IMCL("Device")) {
		t.Error("reverse equivalence did not bridge")
	}
}

// TestSubClassOfFollowsTheGraph: the ancestor memo is dropped whenever
// the graph gains or loses a triple, so an answer never outlives the
// tree it was read from. Readers on many goroutines share the memo.
func TestSubClassOfFollowsTheGraph(t *testing.T) {
	o := New()
	o.DefineClass(rdf.IMCL("Scanner"), rdf.IMCL("Device"))
	scanner, device, peripheral := rdf.IMCL("Scanner"), rdf.IMCL("Device"), rdf.IMCL("Peripheral")
	if o.SubClassOf(scanner, peripheral) {
		t.Fatal("Scanner is a Peripheral before anything says so")
	}
	o.DefineClass(device, peripheral)
	if !o.SubClassOf(scanner, peripheral) {
		t.Fatal("a superclass added after a query is not seen")
	}
	o.g.Remove(rdf.T(device, rdf.RDFSSubClassOf, peripheral))
	if o.SubClassOf(scanner, peripheral) {
		t.Fatal("a removed superclass is still seen")
	}
	// A class the graph does not know reaches nothing and is not kept.
	if o.SubClassOf(rdf.IMCL("NoSuchClass"), device) || len(o.up) != 1 {
		t.Fatalf("an unknown class: memo holds %d classes", len(o.up))
	}

	std := Classes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !std.SubClassOf(rdf.IMCL("MusicFile"), rdf.IMCL("Data")) || std.SubClassOf(rdf.IMCL("Database"), rdf.IMCL("Device")) {
					t.Error("wrong answer from the shared tree")
					return
				}
			}
		}()
	}
	wg.Wait()
}
