package rules

import (
	"strings"
	"testing"

	"mdagent/internal/rdf"
)

func ns() *rdf.Namespaces { return rdf.NewNamespaces() }

func TestParsePaperRule1(t *testing.T) {
	rs, err := Parse(`[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]`, ns())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("parsed %d rules, want 1", len(rs))
	}
	r := rs[0]
	if r.Name != "Rule1" {
		t.Fatalf("name = %q", r.Name)
	}
	if len(r.Body) != 2 || len(r.Head) != 1 {
		t.Fatalf("body/head sizes = %d/%d", len(r.Body), len(r.Head))
	}
	want := rdf.T(rdf.Var("p"), rdf.IMCL("locatedIn"), rdf.Var("q"))
	if r.Body[0].Pattern != want {
		t.Fatalf("body[0] = %v, want %v", r.Body[0].Pattern, want)
	}
}

func TestParsePaperRule3WithBuiltinAndQuotedTypedLiteral(t *testing.T) {
	src := `[Rule3: (?addr1 imcl:address ?value1), (?addr2 imcl:address ?value2),
	         (?srcRsc imcl:compatible ?destRsc), (?n imcl:responseTime ?t),
	         lessThan(?t, '1000'^^xsd:double)
	         -> (?action imcl:actName "move"), (?action imcl:srcAddress ?addr1),
	            (?action imcl:destAddress ?addr2)]`
	rs, err := Parse(src, ns())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if len(r.Body) != 5 {
		t.Fatalf("body size = %d, want 5", len(r.Body))
	}
	bi := r.Body[4]
	if bi.Kind != ClauseBuiltin || bi.Builtin != "lessThan" {
		t.Fatalf("builtin clause = %+v", bi)
	}
	if len(bi.Args) != 2 {
		t.Fatalf("builtin args = %v", bi.Args)
	}
	if bi.Args[0] != rdf.Var("t") {
		t.Fatalf("arg0 = %v", bi.Args[0])
	}
	if bi.Args[1] != rdf.TypedLit("1000", rdf.XSDDouble) {
		t.Fatalf("arg1 = %v, want '1000'^^xsd:double", bi.Args[1])
	}
	if len(r.Head) != 3 {
		t.Fatalf("head size = %d, want 3", len(r.Head))
	}
	if r.Head[0].Pattern.O != rdf.Lit("move") {
		t.Fatalf("head literal = %v", r.Head[0].Pattern.O)
	}
}

func TestParseMultipleRulesWithComments(t *testing.T) {
	src := `
# transitive location
[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]
// second rule
[Rule2: (?x rdf:type imcl:Printer) -> (?x imcl:substitutable true)]
`
	rs, err := Parse(src, ns())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rs))
	}
	if rs[1].Head[0].Pattern.O != rdf.Bool(true) {
		t.Fatalf("boolean head term = %v", rs[1].Head[0].Pattern.O)
	}
}

func TestParseTermVariants(t *testing.T) {
	src := `[R: (?x imcl:p <http://example.org/abs>), (?x imcl:n 42), (?x imcl:f 2.5), ge(?y, 1) -> (?x imcl:ok "yes")]`
	rs, err := Parse(src, ns())
	if err != nil {
		t.Fatal(err)
	}
	b := rs[0].Body
	if b[0].Pattern.O != rdf.IRI("http://example.org/abs") {
		t.Fatalf("IRI term = %v", b[0].Pattern.O)
	}
	if b[1].Pattern.O != rdf.TypedLit("42", rdf.XSDInteger) {
		t.Fatalf("integer term = %v", b[1].Pattern.O)
	}
	if b[2].Pattern.O != rdf.TypedLit("2.5", rdf.XSDDouble) {
		t.Fatalf("double term = %v", b[2].Pattern.O)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"noBracket", `Rule1: (?a imcl:p ?b) -> (?a imcl:q ?b)]`},
		{"noName", `[(?a imcl:p ?b) -> (?a imcl:q ?b)]`},
		{"noArrow", `[R: (?a imcl:p ?b) (?a imcl:q ?b)]`},
		{"emptyHead", `[R: (?a imcl:p ?b) -> ]`},
		{"builtinInHead", `[R: (?a imcl:p ?b) -> lessThan(?a, 1)]`},
		{"unknownBuiltin", `[R: (?a imcl:p ?b), frobnicate(?a) -> (?a imcl:q ?b)]`},
		{"onlyBuiltins", `[R: lessThan(1, 2) -> (?a imcl:q ?b)]`},
		{"unknownPrefix", `[R: (?a zz:p ?b) -> (?a imcl:q ?b)]`},
		{"unterminatedLiteral", `[R: (?a imcl:p 'x) -> (?a imcl:q ?b)]`},
		{"unterminatedIRI", `[R: (?a imcl:p <http://x) -> (?a imcl:q ?b)]`},
		{"emptyVar", `[R: (? imcl:p ?b) -> (?b imcl:q ?b)]`},
		{"badClause", `[R: ?a -> (?a imcl:q ?a)]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src, ns()); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	rs := PaperRules(ns())
	if len(rs) != 3 {
		t.Fatalf("PaperRules returned %d rules", len(rs))
	}
	for _, r := range rs {
		s := r.String()
		if !strings.HasPrefix(s, "["+r.Name+":") || !strings.Contains(s, "->") {
			t.Fatalf("String() = %s", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse(`[broken`, ns())
}

func TestValidateDirectly(t *testing.T) {
	ok := Rule{
		Name: "R",
		Body: []Clause{{Kind: ClausePattern, Pattern: rdf.T(rdf.Var("a"), rdf.IMCL("p"), rdf.Var("b"))}},
		Head: []Clause{{Kind: ClausePattern, Pattern: rdf.T(rdf.Var("a"), rdf.IMCL("q"), rdf.Var("b"))}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	noName := ok
	noName.Name = ""
	if err := noName.Validate(); err == nil {
		t.Fatal("unnamed rule accepted")
	}
	badKind := ok
	badKind.Body = []Clause{{Kind: ClauseKind(9)}}
	if err := badKind.Validate(); err == nil {
		t.Fatal("invalid clause kind accepted")
	}
}
