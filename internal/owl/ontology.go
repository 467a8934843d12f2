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

	mu sync.RWMutex
	// up memoises each class's ancestors — every class it reaches through
	// subClassOf, and equivalentClass both ways — for graph generation
	// gen: a query is a map lookup, and a graph that changed since drops
	// the memo.
	up  map[rdf.Term]map[rdf.Term]struct{}
	gen uint64
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{g: rdf.NewGraph()}
}

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
	_, ok := o.ancestors(a)[b]
	return ok
}

// ancestors returns the classes a reaches, from the memo when the graph
// has not changed since it was filled. A class the graph says nothing
// about is not memoised: a matcher asks about classes a peer named, and
// those must not grow the memo.
func (o *Ontology) ancestors(a rdf.Term) map[rdf.Term]struct{} {
	gen := o.g.Generation()
	o.mu.RLock()
	up, ok := o.up[a]
	ok = ok && o.gen == gen
	o.mu.RUnlock()
	if ok {
		return up
	}
	up = o.walk(a)
	if len(up) == 0 && !o.g.Has(rdf.T(a, rdf.RDFType, rdf.OWLClass)) {
		return up
	}
	o.mu.Lock()
	if o.gen != gen || o.up == nil {
		o.up, o.gen = make(map[rdf.Term]map[rdf.Term]struct{}), gen
	}
	o.up[a] = up
	o.mu.Unlock()
	return up
}

// walk collects the classes a reaches through subClassOf, and
// equivalentClass both ways, breadth first.
func (o *Ontology) walk(a rdf.Term) map[rdf.Term]struct{} {
	up := map[rdf.Term]struct{}{}
	frontier := []rdf.Term{a}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		next := o.g.Objects(cur, rdf.RDFSSubClassOf)
		next = append(next, o.g.Objects(cur, rdf.OWLEquivalentClass)...)
		next = append(next, o.g.Subjects(rdf.OWLEquivalentClass, cur)...)
		for _, c := range next {
			if _, seen := up[c]; !seen {
				up[c] = struct{}{}
				frontier = append(frontier, c)
			}
		}
	}
	return up
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
