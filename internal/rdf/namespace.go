package rdf

import (
	"fmt"
	"strings"
)

// Well-known namespace bases. IMCL is the paper's own namespace (the
// Internet and Mobile Computing Lab prefix used throughout Fig. 5/6).
const (
	RDFNS  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFSNS = "http://www.w3.org/2000/01/rdf-schema#"
	OWLNS  = "http://www.w3.org/2002/07/owl#"
	XSDNS  = "http://www.w3.org/2001/XMLSchema#"
	IMCLNS = "http://imcl.comp.polyu.edu.hk/mdagent#"
)

// Common datatype IRIs.
const (
	XSDString  = XSDNS + "string"
	XSDInteger = XSDNS + "integer"
	XSDDouble  = XSDNS + "double"
	XSDBoolean = XSDNS + "boolean"
)

// Vocabulary terms the class tree is built from.
var (
	RDFType            = IRI(RDFNS + "type")
	RDFSSubClassOf     = IRI(RDFSNS + "subClassOf")
	OWLClass           = IRI(OWLNS + "Class")
	OWLEquivalentClass = IRI(OWLNS + "equivalentClass")
	OWLThing           = IRI(OWLNS + "Thing")
)

// Namespaces maps prefixes (without the colon) to base IRIs and supports
// expanding "prefix:local" qualified names.
type Namespaces struct {
	byPrefix map[string]string
}

// NewNamespaces returns a table preloaded with the standard prefixes
// (rdf, rdfs, owl, xsd) and the paper's imcl prefix.
func NewNamespaces() *Namespaces {
	ns := &Namespaces{byPrefix: make(map[string]string, 8)}
	ns.Bind("rdf", RDFNS)
	ns.Bind("rdfs", RDFSNS)
	ns.Bind("owl", OWLNS)
	ns.Bind("xsd", XSDNS)
	ns.Bind("imcl", IMCLNS)
	return ns
}

// Bind associates prefix with base, replacing any previous binding.
func (n *Namespaces) Bind(prefix, base string) {
	n.byPrefix[prefix] = base
}

// Expand resolves a qualified name like "imcl:locatedIn" to a full IRI term.
// Already-expanded IRIs (containing "://") pass through unchanged.
func (n *Namespaces) Expand(qname string) (Term, error) {
	if strings.Contains(qname, "://") {
		return IRI(qname), nil
	}
	i := strings.IndexByte(qname, ':')
	if i < 0 {
		return Term{}, fmt.Errorf("rdf: %q is not a qualified name", qname)
	}
	prefix, local := qname[:i], qname[i+1:]
	base, ok := n.byPrefix[prefix]
	if !ok {
		return Term{}, fmt.Errorf("rdf: unknown namespace prefix %q", prefix)
	}
	return IRI(base + local), nil
}

// IMCL expands a local name in the paper's namespace, e.g. IMCL("locatedIn").
func IMCL(local string) Term { return IRI(IMCLNS + local) }
