package rules

import (
	"strings"
	"testing"
	"testing/quick"

	"mdagent/internal/rdf"
)

func mustEngine(t *testing.T, src string) *Engine {
	t.Helper()
	rs, err := Parse(src, ns())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(rs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTransitiveClosureRule1(t *testing.T) {
	// Paper Rule 1: locatedIn is transitive. printer -> office821 -> floor8 -> building.
	e := mustEngine(t, `[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]`)
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL("printer1"), rdf.IMCL("locatedIn"), rdf.IMCL("office821")))
	g.Add(rdf.T(rdf.IMCL("office821"), rdf.IMCL("locatedIn"), rdf.IMCL("floor8")))
	g.Add(rdf.T(rdf.IMCL("floor8"), rdf.IMCL("locatedIn"), rdf.IMCL("buildingQ")))

	res, err := e.Infer(g)
	if err != nil {
		t.Fatal(err)
	}
	// New facts: printer->floor8, printer->buildingQ, office->buildingQ.
	if res.Added != 3 {
		t.Fatalf("Added = %d, want 3", res.Added)
	}
	if !g.Has(rdf.T(rdf.IMCL("printer1"), rdf.IMCL("locatedIn"), rdf.IMCL("buildingQ"))) {
		t.Fatal("two-step transitive fact missing")
	}
	// Fixpoint must need >1 round for the 2-step derivation plus one
	// empty confirmation round.
	if res.Iterations < 2 {
		t.Fatalf("Iterations = %d, want >= 2", res.Iterations)
	}
}

func TestInferIdempotent(t *testing.T) {
	e := mustEngine(t, `[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]`)
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL("a"), rdf.IMCL("locatedIn"), rdf.IMCL("b")))
	g.Add(rdf.T(rdf.IMCL("b"), rdf.IMCL("locatedIn"), rdf.IMCL("c")))
	if _, err := e.Infer(g); err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	res2, err := e.Infer(g)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Added != 0 || g.Len() != n {
		t.Fatalf("second Infer added %d (len %d -> %d), want 0", res2.Added, n, g.Len())
	}
}

func TestPaperPipelineRule2ThenRule3(t *testing.T) {
	// Full Fig. 6 scenario: printers on both hosts, good network => move action.
	g := rdf.NewGraph()
	// Type declarations (Rule 2 matches ?ptr with printerObj 'printer').
	g.Add(rdf.T(rdf.IMCL("PrinterClass"), rdf.IMCL("printerObj"), rdf.Lit("printer")))
	g.Add(rdf.T(rdf.IMCL("srcPrinter"), rdf.RDFType, rdf.IMCL("PrinterClass")))
	g.Add(rdf.T(rdf.IMCL("destPrinter"), rdf.IMCL("printerObj"), rdf.IMCL("PrinterClass")))
	// Addresses for Rule 3.
	g.Add(rdf.T(rdf.IMCL("hostA"), rdf.IMCL("address"), rdf.Lit("192.168.0.1")))
	g.Add(rdf.T(rdf.IMCL("hostB"), rdf.IMCL("address"), rdf.Lit("192.168.0.2")))
	// Network observation: 800 ms response time (< 1000 threshold).
	g.Add(rdf.T(rdf.IMCL("net1"), rdf.IMCL("responseTime"), rdf.Float(800)))

	e, err := NewEngine(PaperRules(rdf.NewNamespaces()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Infer(g)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.T(rdf.IMCL("srcPrinter"), rdf.IMCL("compatible"), rdf.IMCL("destPrinter"))) {
		t.Fatal("Rule2 compatibility fact missing")
	}
	actions := g.Subjects(rdf.IMCL("actName"), rdf.Lit("move"))
	if len(actions) == 0 {
		t.Fatalf("Rule3 produced no move action; derivations: %v", res.Derivations)
	}
	// The skolemized action node must carry src and dest addresses.
	a := actions[0]
	if a.Kind != rdf.KindBlank {
		t.Fatalf("action node = %v, want blank (skolem)", a)
	}
	if len(g.Objects(a, rdf.IMCL("srcAddress"))) == 0 {
		t.Fatal("move action missing srcAddress")
	}
	if len(g.Objects(a, rdf.IMCL("destAddress"))) == 0 {
		t.Fatal("move action missing destAddress")
	}
}

func TestRule3BlockedBySlowNetwork(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL("PrinterClass"), rdf.IMCL("printerObj"), rdf.Lit("printer")))
	g.Add(rdf.T(rdf.IMCL("srcPrinter"), rdf.RDFType, rdf.IMCL("PrinterClass")))
	g.Add(rdf.T(rdf.IMCL("destPrinter"), rdf.IMCL("printerObj"), rdf.IMCL("PrinterClass")))
	g.Add(rdf.T(rdf.IMCL("hostA"), rdf.IMCL("address"), rdf.Lit("a")))
	g.Add(rdf.T(rdf.IMCL("hostB"), rdf.IMCL("address"), rdf.Lit("b")))
	g.Add(rdf.T(rdf.IMCL("net1"), rdf.IMCL("responseTime"), rdf.Float(2500))) // too slow

	e, err := NewEngine(PaperRules(rdf.NewNamespaces()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Infer(g); err != nil {
		t.Fatal(err)
	}
	if acts := g.Subjects(rdf.IMCL("actName"), rdf.Lit("move")); len(acts) != 0 {
		t.Fatalf("move fired despite 2500 ms response time: %v", acts)
	}
}

func TestDerivationsRecorded(t *testing.T) {
	e := mustEngine(t, `[R: (?x imcl:p ?y) -> (?y imcl:q ?x)]`)
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL("a"), rdf.IMCL("p"), rdf.IMCL("b")))
	res, err := e.Infer(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Derivations) != 1 {
		t.Fatalf("derivations = %d, want 1", len(res.Derivations))
	}
	d := res.Derivations[0]
	if d.Rule != "R" || len(d.Produced) != 1 {
		t.Fatalf("derivation = %+v", d)
	}
	if d.Binding["x"] != rdf.IMCL("a") || d.Binding["y"] != rdf.IMCL("b") {
		t.Fatalf("binding = %v", d.Binding)
	}
}

func TestBuiltinGuards(t *testing.T) {
	tests := []struct {
		name string
		rule string
		fact rdf.Triple
		want bool
	}{
		{"ltPass", `[R: (?x imcl:v ?t), lessThan(?t, 10) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.TypedLit("5", rdf.XSDInteger)), true},
		{"ltFail", `[R: (?x imcl:v ?t), lessThan(?t, 10) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.TypedLit("15", rdf.XSDInteger)), false},
		{"gtPass", `[R: (?x imcl:v ?t), greaterThan(?t, 10) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.TypedLit("15", rdf.XSDInteger)), true},
		{"gePassBoundary", `[R: (?x imcl:v ?t), ge(?t, 10) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.TypedLit("10", rdf.XSDInteger)), true},
		{"leFailBoundary", `[R: (?x imcl:v ?t), le(?t, 9) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.TypedLit("10", rdf.XSDInteger)), false},
		{"equalNumericCrossType", `[R: (?x imcl:v ?t), equal(?t, '5'^^xsd:double) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.TypedLit("5", rdf.XSDInteger)), true},
		{"notEqualTerm", `[R: (?x imcl:v ?t), notEqual(?t, "other") -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.Lit("this")), true},
		{"boundPass", `[R: (?x imcl:v ?t), bound(?t) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.Lit("v")), true},
		{"ltNonNumericFails", `[R: (?x imcl:v ?t), lessThan(?t, 10) -> (?x imcl:ok "y")]`,
			rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.Lit("NaNish")), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.rule)
			g := rdf.NewGraph()
			g.Add(tc.fact)
			if _, err := e.Infer(g); err != nil {
				t.Fatal(err)
			}
			got := g.Has(rdf.T(rdf.IMCL("a"), rdf.IMCL("ok"), rdf.Lit("y")))
			if got != tc.want {
				t.Fatalf("rule fired = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestBuiltinArityError(t *testing.T) {
	e := mustEngine(t, `[R: (?x imcl:v ?t), lessThan(?t) -> (?x imcl:ok "y")]`)
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL("a"), rdf.IMCL("v"), rdf.TypedLit("1", rdf.XSDInteger)))
	if _, err := e.Infer(g); err == nil || !strings.Contains(err.Error(), "lessThan") {
		t.Fatalf("err = %v, want lessThan arity error", err)
	}
}

func TestMaxIterationsGuard(t *testing.T) {
	// A self-feeding skolem chain never reaches fixpoint: each firing
	// binds a new subject, producing a new token and a fresh skolem.
	rs, err := Parse(`[Gen: (?x imcl:next ?y) -> (?y imcl:next ?fresh)]`, ns())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(rs)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL("a"), rdf.IMCL("next"), rdf.IMCL("b")))
	res, err := e.Infer(g)
	if err == nil || !strings.Contains(err.Error(), "no fixpoint after 100 iterations") {
		t.Fatalf("err = %v, want the iteration bound to trip", err)
	}
	if res.Iterations != maxIterations {
		t.Fatalf("Iterations = %d, want %d", res.Iterations, maxIterations)
	}
}

func TestSkolemRuleFiresOncePerToken(t *testing.T) {
	// Jena-style once-per-token semantics: a head-only variable rule must
	// not refire for the same body binding, within or across Infer calls.
	e := mustEngine(t, `[Act: (?x imcl:ready true) -> (?a imcl:actName "move"), (?a imcl:target ?x)]`)
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL("app"), rdf.IMCL("ready"), rdf.Bool(true)))
	if _, err := e.Infer(g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Infer(g); err != nil {
		t.Fatal(err)
	}
	if acts := g.Subjects(rdf.IMCL("actName"), rdf.Lit("move")); len(acts) != 1 {
		t.Fatalf("skolem rule fired %d times, want 1", len(acts))
	}
}

func TestNewEngineValidates(t *testing.T) {
	if _, err := NewEngine([]Rule{{Name: "x"}}); err == nil {
		t.Fatal("NewEngine accepted invalid rule")
	}
}

// Property: inference is monotonic — every input triple survives, and
// repeated runs never shrink the graph.
func TestInferenceMonotonic(t *testing.T) {
	e := mustEngine(t, `[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]`)
	f := func(pairs []uint8) bool {
		g := rdf.NewGraph()
		var inputs []rdf.Triple
		for _, p := range pairs {
			tr := rdf.T(
				rdf.IMCL("n"+string(rune('a'+p%7))),
				rdf.IMCL("locatedIn"),
				rdf.IMCL("n"+string(rune('a'+(p/7)%7))),
			)
			g.Add(tr)
			inputs = append(inputs, tr)
		}
		before := g.Len()
		if _, err := e.Infer(g); err != nil {
			return false
		}
		if g.Len() < before {
			return false
		}
		for _, tr := range inputs {
			if !g.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveClosureComplete(t *testing.T) {
	// Chain a->b->c->d->e: closure must contain all 10 ordered reachable pairs.
	e := mustEngine(t, `[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]`)
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c", "d", "e"}
	for i := 0; i+1 < len(nodes); i++ {
		g.Add(rdf.T(rdf.IMCL(nodes[i]), rdf.IMCL("locatedIn"), rdf.IMCL(nodes[i+1])))
	}
	if _, err := e.Infer(g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.Has(rdf.T(rdf.IMCL(nodes[i]), rdf.IMCL("locatedIn"), rdf.IMCL(nodes[j]))) {
				t.Fatalf("missing closure %s->%s", nodes[i], nodes[j])
			}
		}
	}
	if g.Len() != 10 {
		t.Fatalf("Len = %d, want 10 (closure of a 5-chain)", g.Len())
	}
}
