// Package owl implements the OWL subset MDAgent uses to describe and match
// resources (paper §4.4). The paper models resources and their
// inter-relations in OWL "as it not only supports resource matching
// semantically, but also facilitates the reasoning process"; this package
// provides the resource class tree with subClassOf and equivalentClass
// closure (Classes, one shared read-only tree), the paper's resource
// description axes (Transferable × Substitutable), and the semantic
// compatibility matcher used for resource rebinding after migration. The
// resources themselves are registry records (internal/cluster's Center),
// not individuals in a graph: the matcher decides from the descriptions
// it is given.
package owl

import (
	"sync"

	"mdagent/internal/rdf"
)

// Ontology is a class tree over an RDF graph. It is safe for concurrent
// use to the extent the underlying graph is.
type Ontology struct {
	g *rdf.Graph
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{g: rdf.NewGraph()}
}

// Graph exposes the underlying triple store.
func (o *Ontology) Graph() *rdf.Graph { return o.g }

// DefineClass declares class as an owl:Class with the given superclasses.
func (o *Ontology) DefineClass(class rdf.Term, parents ...rdf.Term) {
	o.g.Add(rdf.T(class, rdf.RDFType, rdf.OWLClass))
	for _, p := range parents {
		o.g.Add(rdf.T(class, rdf.RDFSSubClassOf, p))
	}
}

// SubClassOf reports whether a is b or a (transitive) subclass of b.
func (o *Ontology) SubClassOf(a, b rdf.Term) bool {
	if a == b || b == rdf.OWLThing {
		return true
	}
	seen := map[rdf.Term]bool{a: true}
	frontier := []rdf.Term{a}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, sup := range o.g.Objects(cur, rdf.RDFSSubClassOf) {
			if sup == b {
				return true
			}
			if !seen[sup] {
				seen[sup] = true
				frontier = append(frontier, sup)
			}
		}
		// equivalentClass links count both ways.
		for _, eq := range o.equivalents(cur) {
			if eq == b {
				return true
			}
			if !seen[eq] {
				seen[eq] = true
				frontier = append(frontier, eq)
			}
		}
	}
	return false
}

func (o *Ontology) equivalents(c rdf.Term) []rdf.Term {
	out := o.g.Objects(c, rdf.OWLEquivalentClass)
	out = append(out, o.g.Subjects(rdf.OWLEquivalentClass, c)...)
	return out
}

// Classes returns the standard resource class tree used throughout the
// examples and benchmarks, mirroring the paper's running examples (§4.4):
// printers (substitutable, untransferable), databases (neither), PDAs
// (transferable, not substitutable), media files, displays, projectors.
// It is built once and shared; callers must not add to it.
var Classes = sync.OnceValue(func() *Ontology {
	o := New()
	res := rdf.IMCL("Resource")
	o.DefineClass(res)
	for _, c := range []string{"Device", "Data", "Service"} {
		o.DefineClass(rdf.IMCL(c), res)
	}
	o.DefineClass(rdf.IMCL("Printer"), rdf.IMCL("Device"))
	o.DefineClass(rdf.IMCL("ColorPrinter"), rdf.IMCL("Printer"))
	o.DefineClass(rdf.IMCL("LaserPrinter"), rdf.IMCL("Printer"))
	o.DefineClass(rdf.IMCL("Display"), rdf.IMCL("Device"))
	o.DefineClass(rdf.IMCL("Projector"), rdf.IMCL("Display"))
	o.DefineClass(rdf.IMCL("PDA"), rdf.IMCL("Device"))
	o.DefineClass(rdf.IMCL("Database"), rdf.IMCL("Service"))
	o.DefineClass(rdf.IMCL("MediaFile"), rdf.IMCL("Data"))
	o.DefineClass(rdf.IMCL("MusicFile"), rdf.IMCL("MediaFile"))
	o.DefineClass(rdf.IMCL("SlideDeck"), rdf.IMCL("Data"))
	o.DefineClass(rdf.IMCL("Document"), rdf.IMCL("Data"))
	return o
})
