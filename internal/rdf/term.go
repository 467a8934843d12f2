// Package rdf implements the triple-store substrate underlying MDAgent's
// resource descriptions and reasoning (paper §4.4). The paper models
// resources and their inter-relations in OWL (an RDF vocabulary) and runs
// Jena rules over them; this package provides the RDF data model — terms,
// triples, an indexed graph with pattern matching, conjunctive queries and
// namespaces — on which internal/owl and internal/rules are built.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the kinds of RDF terms. Variables extend plain RDF
// for use in patterns and rules.
type TermKind int

// Term kinds. Enums start at one so the zero Term is recognizably invalid.
const (
	KindIRI TermKind = iota + 1
	KindLiteral
	KindBlank
	KindVariable
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	case KindVariable:
		return "variable"
	default:
		return "invalid"
	}
}

// Term is an RDF term: IRI, literal, blank node, or (in patterns) variable.
// Terms are small immutable values; compare with Equal or ==.
type Term struct {
	Kind     TermKind
	Value    string // IRI text, literal lexical form, blank label, or variable name
	Datatype string // literal datatype IRI ("" means plain string)
}

// Zero reports whether t is the invalid zero Term.
func (t Term) Zero() bool { return t.Kind == 0 }

// IsVar reports whether t is a pattern variable.
func (t Term) IsVar() bool { return t.Kind == KindVariable }

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Lit returns a plain string literal.
func Lit(s string) Term { return Term{Kind: KindLiteral, Value: s, Datatype: XSDString} }

// TypedLit returns a literal with an explicit datatype IRI.
func TypedLit(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// Float returns an xsd:double literal.
func Float(f float64) Term {
	return TypedLit(strconv.FormatFloat(f, 'g', -1, 64), XSDDouble)
}

// Bool returns an xsd:boolean literal.
func Bool(b bool) Term { return TypedLit(strconv.FormatBool(b), XSDBoolean) }

// Blank returns a blank-node term with the given label.
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// Var returns a pattern variable, e.g. Var("p") matches any term and binds ?p.
func Var(name string) Term { return Term{Kind: KindVariable, Value: name} }

// AsFloat parses the literal as a float. Integer literals qualify.
func (t Term) AsFloat() (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}

// String renders the term in N-Triples-like syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindLiteral:
		if t.Datatype == "" || t.Datatype == XSDString {
			return strconv.Quote(t.Value)
		}
		return strconv.Quote(t.Value) + "^^<" + t.Datatype + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindVariable:
		return "?" + t.Value
	default:
		return "<invalid>"
	}
}

// Triple is an RDF statement. In patterns any position may be a variable.
type Triple struct {
	S, P, O Term
}

// T builds a triple.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples-like syntax.
func (tr Triple) String() string {
	return fmt.Sprintf("%s %s %s .", tr.S, tr.P, tr.O)
}

// IsGround reports whether the triple contains no variables.
func (tr Triple) IsGround() bool {
	return !tr.S.IsVar() && !tr.P.IsVar() && !tr.O.IsVar()
}

// Vars returns the distinct variable names in the triple, in S,P,O order.
func (tr Triple) Vars() []string {
	var vs []string
	seen := make(map[string]bool, 3)
	for _, t := range []Term{tr.S, tr.P, tr.O} {
		if t.IsVar() && !seen[t.Value] {
			seen[t.Value] = true
			vs = append(vs, t.Value)
		}
	}
	return vs
}

// Binding maps variable names to ground terms.
type Binding map[string]Term

// Clone returns a copy of b.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Resolve substitutes bound variables in t; unbound variables pass through.
func (b Binding) Resolve(t Term) Term {
	if t.IsVar() {
		if g, ok := b[t.Value]; ok {
			return g
		}
	}
	return t
}

// ResolveTriple substitutes bound variables in all three positions.
func (b Binding) ResolveTriple(tr Triple) Triple {
	return Triple{S: b.Resolve(tr.S), P: b.Resolve(tr.P), O: b.Resolve(tr.O)}
}

// String renders the binding deterministically for debugging.
func (b Binding) String() string {
	if len(b) == 0 {
		return "{}"
	}
	parts := make([]string, 0, len(b))
	for k, v := range b {
		parts = append(parts, "?"+k+"="+v.String())
	}
	sortStrings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// sortStrings is a tiny insertion sort to avoid importing sort for one call
// site on small slices.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
