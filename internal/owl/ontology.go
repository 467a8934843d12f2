// Package owl implements the OWL subset MDAgent uses to describe and match
// resources (paper §4.4). The paper models resources and their
// inter-relations in OWL "as it not only supports resource matching
// semantically, but also facilitates the reasoning process"; this package
// provides class hierarchies with subClassOf closure, object/datatype
// properties with OWL characteristics (transitive, symmetric, inverse),
// OWL-QL-style conjunctive queries, the paper's resource description axes
// (Transferable × Substitutable), and the semantic compatibility matcher
// used for resource rebinding after migration.
package owl

import (
	"fmt"

	"mdagent/internal/rdf"
	"mdagent/internal/rules"
)

// Ontology wraps an RDF graph with OWL-aware operations. It is safe for
// concurrent use to the extent the underlying graph is.
type Ontology struct {
	g  *rdf.Graph
	ns *rdf.Namespaces
}

// New returns an empty ontology with the standard namespaces bound.
func New() *Ontology {
	return &Ontology{g: rdf.NewGraph(), ns: rdf.NewNamespaces()}
}

// Graph exposes the underlying triple store.
func (o *Ontology) Graph() *rdf.Graph { return o.g }

// Namespaces exposes the namespace table.
func (o *Ontology) Namespaces() *rdf.Namespaces { return o.ns }

// DefineClass declares class as an owl:Class with the given superclasses.
func (o *Ontology) DefineClass(class rdf.Term, parents ...rdf.Term) {
	o.g.Add(rdf.T(class, rdf.RDFType, rdf.OWLClass))
	for _, p := range parents {
		o.g.Add(rdf.T(class, rdf.RDFSSubClassOf, p))
	}
}

// PropertyTrait configures a property definition.
type PropertyTrait func(o *Ontology, p rdf.Term)

// Transitive marks the property owl:TransitiveProperty (paper Fig. 5:
// locatedIn is transitive).
func Transitive() PropertyTrait {
	return func(o *Ontology, p rdf.Term) {
		o.g.Add(rdf.T(p, rdf.RDFType, rdf.OWLTransitiveProp))
	}
}

// Symmetric marks the property owl:SymmetricProperty.
func Symmetric() PropertyTrait {
	return func(o *Ontology, p rdf.Term) {
		o.g.Add(rdf.T(p, rdf.RDFType, rdf.OWLSymmetricProp))
	}
}

// InverseOf declares q as the inverse property of p.
func InverseOf(q rdf.Term) PropertyTrait {
	return func(o *Ontology, p rdf.Term) {
		o.g.Add(rdf.T(p, rdf.OWLInverseOf, q))
	}
}

// Domain declares the property's rdfs:domain.
func Domain(c rdf.Term) PropertyTrait {
	return func(o *Ontology, p rdf.Term) {
		o.g.Add(rdf.T(p, rdf.RDFSDomain, c))
	}
}

// Range declares the property's rdfs:range.
func Range(c rdf.Term) PropertyTrait {
	return func(o *Ontology, p rdf.Term) {
		o.g.Add(rdf.T(p, rdf.RDFSRange, c))
	}
}

// DefineObjectProperty declares p as an owl:ObjectProperty with traits.
func (o *Ontology) DefineObjectProperty(p rdf.Term, traits ...PropertyTrait) {
	o.g.Add(rdf.T(p, rdf.RDFType, rdf.OWLObjectProperty))
	for _, t := range traits {
		t(o, p)
	}
}

// DefineDatatypeProperty declares p as an owl:DatatypeProperty.
func (o *Ontology) DefineDatatypeProperty(p rdf.Term, traits ...PropertyTrait) {
	o.g.Add(rdf.T(p, rdf.RDFType, rdf.OWLDatatypeProp))
	for _, t := range traits {
		t(o, p)
	}
}

// Assert adds a ground statement.
func (o *Ontology) Assert(s, p, obj rdf.Term) { o.g.Add(rdf.T(s, p, obj)) }

// AssertType types an individual.
func (o *Ontology) AssertType(ind, class rdf.Term) {
	o.g.Add(rdf.T(ind, rdf.RDFType, class))
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

// TypesOf returns the direct and inherited classes of an individual.
func (o *Ontology) TypesOf(ind rdf.Term) []rdf.Term {
	seen := make(map[rdf.Term]bool)
	var out []rdf.Term
	var frontier []rdf.Term
	add := func(c rdf.Term) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
			frontier = append(frontier, c)
		}
	}
	for _, c := range o.g.Objects(ind, rdf.RDFType) {
		add(c)
	}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, sup := range o.g.Objects(cur, rdf.RDFSSubClassOf) {
			add(sup)
		}
		for _, eq := range o.equivalents(cur) {
			add(eq)
		}
	}
	return out
}

// IsA reports whether individual ind belongs to class (directly or via the
// class hierarchy).
func (o *Ontology) IsA(ind, class rdf.Term) bool {
	for _, c := range o.g.Objects(ind, rdf.RDFType) {
		if o.SubClassOf(c, class) {
			return true
		}
	}
	return false
}

// Materialize computes the closure of OWL property semantics — transitive
// properties, symmetric properties and inverse pairs — plus rdf:type
// inheritance through rdfs:subClassOf, adding the entailed triples to the
// graph. It returns the number of triples added. Materialize is idempotent.
func (o *Ontology) Materialize() int {
	added := 0
	for {
		round := 0
		round += o.materializeTransitive()
		round += o.materializeSymmetric()
		round += o.materializeInverse()
		round += o.materializeTypeInheritance()
		added += round
		if round == 0 {
			return added
		}
	}
}

func (o *Ontology) materializeTransitive() int {
	added := 0
	for _, p := range o.g.Subjects(rdf.RDFType, rdf.OWLTransitiveProp) {
		// Repeated squaring until stable for this property.
		for {
			n := 0
			edges := o.g.Match(rdf.Triple{P: p})
			index := make(map[rdf.Term][]rdf.Term, len(edges))
			for _, e := range edges {
				index[e.S] = append(index[e.S], e.O)
			}
			for _, e := range edges {
				for _, next := range index[e.O] {
					if o.g.Add(rdf.T(e.S, p, next)) {
						n++
					}
				}
			}
			added += n
			if n == 0 {
				break
			}
		}
	}
	return added
}

func (o *Ontology) materializeSymmetric() int {
	added := 0
	for _, p := range o.g.Subjects(rdf.RDFType, rdf.OWLSymmetricProp) {
		for _, e := range o.g.Match(rdf.Triple{P: p}) {
			if o.g.Add(rdf.T(e.O, p, e.S)) {
				added++
			}
		}
	}
	return added
}

func (o *Ontology) materializeInverse() int {
	added := 0
	for _, link := range o.g.Match(rdf.Triple{P: rdf.OWLInverseOf}) {
		p, q := link.S, link.O
		for _, e := range o.g.Match(rdf.Triple{P: p}) {
			if o.g.Add(rdf.T(e.O, q, e.S)) {
				added++
			}
		}
		for _, e := range o.g.Match(rdf.Triple{P: q}) {
			if o.g.Add(rdf.T(e.O, p, e.S)) {
				added++
			}
		}
	}
	return added
}

func (o *Ontology) materializeTypeInheritance() int {
	added := 0
	for _, tt := range o.g.Match(rdf.Triple{P: rdf.RDFType}) {
		for _, sup := range o.g.Objects(tt.O, rdf.RDFSSubClassOf) {
			if o.g.Add(rdf.T(tt.S, rdf.RDFType, sup)) {
				added++
			}
		}
	}
	return added
}

// Query answers an OWL-QL-style conjunctive query: each pattern may contain
// variables, and the result is every binding satisfying all patterns.
func (o *Ontology) Query(patterns []rdf.Triple) []rdf.Binding {
	return o.g.Solve(patterns)
}

// ParseQuery parses a textual conjunctive query in the paper's pattern
// syntax, e.g. "(?r rdf:type imcl:Printer), (?r imcl:locatedIn ?room)".
func (o *Ontology) ParseQuery(src string) ([]rdf.Triple, error) {
	// Reuse the rule parser by wrapping the patterns in a dummy rule.
	return ParsePatterns(src, o.ns)
}

// QueryText parses and runs a textual query in one call.
func (o *Ontology) QueryText(src string) ([]rdf.Binding, error) {
	ps, err := o.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return o.Query(ps), nil
}

// ParsePatterns parses comma-separated (s p o) patterns with ?variables,
// resolving qualified names against ns. The syntax is shared with rule
// bodies (internal/rules).
func ParsePatterns(src string, ns *rdf.Namespaces) ([]rdf.Triple, error) {
	ps, err := rules.ParsePatterns(src, ns)
	if err != nil {
		return nil, fmt.Errorf("owl: %w", err)
	}
	return ps, nil
}
