package rdf

import (
	"testing"
)

func TestTermConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", IRI("http://x/y"), KindIRI, "<http://x/y>"},
		{"lit", Lit("hello"), KindLiteral, `"hello"`},
		{"typed", TypedLit("1.5", XSDDouble), KindLiteral, `"1.5"^^<` + XSDDouble + ">"},
		{"int", TypedLit("42", XSDInteger), KindLiteral, `"42"^^<` + XSDInteger + ">"},
		{"float", Float(2.5), KindLiteral, `"2.5"^^<` + XSDDouble + ">"},
		{"bool", Bool(true), KindLiteral, `"true"^^<` + XSDBoolean + ">"},
		{"blank", Blank("b0"), KindBlank, "_:b0"},
		{"var", Var("x"), KindVariable, "?x"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Fatalf("Kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if got := tc.term.String(); got != tc.str {
				t.Fatalf("String = %s, want %s", got, tc.str)
			}
		})
	}
}

func TestTermZeroAndKindString(t *testing.T) {
	var z Term
	if !z.Zero() {
		t.Fatal("zero Term not Zero()")
	}
	if z.String() != "<invalid>" {
		t.Fatalf("zero Term String = %q", z.String())
	}
	if IRI("x").Zero() {
		t.Fatal("IRI reported Zero")
	}
	if got := KindIRI.String(); got != "iri" {
		t.Fatalf("KindIRI.String = %q", got)
	}
	if got := TermKind(0).String(); got != "invalid" {
		t.Fatalf("TermKind(0).String = %q", got)
	}
}

func TestLiteralConversions(t *testing.T) {
	if v, ok := TypedLit("7", XSDInteger).AsFloat(); !ok || v != 7 {
		t.Fatalf("int AsFloat = %g, %v", v, ok)
	}
	if v, ok := Float(1.25).AsFloat(); !ok || v != 1.25 {
		t.Fatalf("AsFloat = %g, %v", v, ok)
	}
	if _, ok := Lit("abc").AsFloat(); ok {
		t.Fatal("non-numeric literal parsed as float")
	}
	if _, ok := IRI("x").AsFloat(); ok {
		t.Fatal("IRI parsed as float")
	}
}

func TestTripleHelpers(t *testing.T) {
	ground := T(IMCL("a"), IMCL("p"), Lit("v"))
	if !ground.IsGround() {
		t.Fatal("ground triple reported non-ground")
	}
	if vs := ground.Vars(); len(vs) != 0 {
		t.Fatalf("ground Vars = %v", vs)
	}
	pat := T(Var("x"), IMCL("p"), Var("x"))
	if pat.IsGround() {
		t.Fatal("pattern reported ground")
	}
	if vs := pat.Vars(); len(vs) != 1 || vs[0] != "x" {
		t.Fatalf("Vars = %v, want [x] deduplicated", vs)
	}
	want := `<` + IMCLNS + `a> <` + IMCLNS + `p> "v" .`
	if got := ground.String(); got != want {
		t.Fatalf("Triple.String = %s, want %s", got, want)
	}
}

func TestBindingResolve(t *testing.T) {
	b := Binding{"x": IMCL("a")}
	if got := b.Resolve(Var("x")); got != IMCL("a") {
		t.Fatalf("Resolve bound = %v", got)
	}
	if got := b.Resolve(Var("y")); got != Var("y") {
		t.Fatalf("Resolve unbound = %v, want pass-through", got)
	}
	if got := b.Resolve(Lit("v")); got != Lit("v") {
		t.Fatalf("Resolve ground = %v", got)
	}
	rt := b.ResolveTriple(T(Var("x"), IMCL("p"), Var("y")))
	if rt.S != IMCL("a") || !rt.O.IsVar() {
		t.Fatalf("ResolveTriple = %v", rt)
	}
}

func TestBindingCloneIndependent(t *testing.T) {
	b := Binding{"x": IMCL("a")}
	c := b.Clone()
	c["y"] = IMCL("b")
	if _, leak := b["y"]; leak {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBindingStringDeterministic(t *testing.T) {
	b := Binding{"b": IMCL("y"), "a": IMCL("x")}
	want := "{?a=<" + IMCLNS + "x>, ?b=<" + IMCLNS + "y>}"
	for i := 0; i < 10; i++ {
		if got := b.String(); got != want {
			t.Fatalf("Binding.String = %s, want %s", got, want)
		}
	}
	if got := (Binding{}).String(); got != "{}" {
		t.Fatalf("empty Binding.String = %s", got)
	}
}

func TestNamespacesExpandCompact(t *testing.T) {
	ns := NewNamespaces()
	term, err := ns.Expand("imcl:locatedIn")
	if err != nil {
		t.Fatal(err)
	}
	if term != IMCL("locatedIn") {
		t.Fatalf("Expand = %v", term)
	}
	// Full IRIs pass through.
	full, err := ns.Expand("http://example.org/x")
	if err != nil || full.Value != "http://example.org/x" {
		t.Fatalf("full IRI Expand = %v, %v", full, err)
	}
	// Errors.
	if _, err := ns.Expand("noColonHere"); err == nil {
		t.Fatal("Expand accepted name without colon")
	}
	if _, err := ns.Expand("nope:x"); err == nil {
		t.Fatal("Expand accepted unknown prefix")
	}
}

func TestNamespacesBindOverride(t *testing.T) {
	ns := NewNamespaces()
	ns.Bind("ex", "http://example.org/")
	got, err := ns.Expand("ex:thing")
	if err != nil || got.Value != "http://example.org/thing" {
		t.Fatalf("Expand ex: = %v, %v", got, err)
	}
	ns.Bind("ex", "http://other.org/")
	got, _ = ns.Expand("ex:thing")
	if got.Value != "http://other.org/thing" {
		t.Fatalf("rebind not effective: %v", got)
	}
}
