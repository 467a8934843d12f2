package rules

import (
	"fmt"
	"strconv"
	"sync"

	"mdagent/internal/rdf"
)

// Derivation records one rule firing: which rule, under which binding,
// produced which triples. Autonomous agents surface these as explanations
// for migration decisions.
type Derivation struct {
	Rule     string
	Binding  rdf.Binding
	Produced []rdf.Triple
}

// Engine runs a rule set to fixpoint over a graph. It is safe for
// concurrent use; each Infer call synchronizes internally.
//
// Rules whose head introduces variables not bound by the body (like the
// paper's Rule 3 ?action node) mint a fresh blank node per firing. To keep
// inference terminating, such rules fire at most once per distinct body
// binding — the once-per-token semantics of Jena's RETE engine. The firing
// memory persists across Infer calls so re-running on the same knowledge
// base is idempotent; call Reset when switching to an unrelated graph.
type Engine struct {
	mu     sync.Mutex
	rules  []Rule
	skolem int             // counter for fresh blank nodes
	fired  map[string]bool // (rule, binding) keys for skolemizing rules
}

// maxIterations bounds the number of fixpoint rounds of one Infer call.
const maxIterations = 100

// NewEngine builds an engine over the given rules. Rules are validated.
func NewEngine(rs []Rule) (*Engine, error) {
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return &Engine{rules: rs, fired: make(map[string]bool)}, nil
}

// Result summarizes one Infer run.
type Result struct {
	Added       int // number of new triples inferred
	Iterations  int // fixpoint rounds executed
	Derivations []Derivation
}

// Infer runs all rules to fixpoint, mutating g in place, and returns the
// run summary. The algorithm is naive-with-dedup: each round solves every
// rule body against the current graph and adds instantiated heads; it
// stops when a round adds nothing (monotonic, so a fixpoint exists) or
// when the iteration bound trips.
func (e *Engine) Infer(g *rdf.Graph) (Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res Result
	for res.Iterations < maxIterations {
		res.Iterations++
		addedThisRound := 0
		for _, r := range e.rules {
			fired, err := e.fireLocked(g, r)
			if err != nil {
				return res, err
			}
			for _, d := range fired {
				addedThisRound += len(d.Produced)
				res.Derivations = append(res.Derivations, d)
			}
		}
		res.Added += addedThisRound
		if addedThisRound == 0 {
			return res, nil
		}
	}
	return res, fmt.Errorf("rules: no fixpoint after %d iterations (%d triples added)", maxIterations, res.Added)
}

// fireLocked evaluates one rule against g and adds novel conclusions.
func (e *Engine) fireLocked(g *rdf.Graph, r Rule) ([]Derivation, error) {
	bindings := []rdf.Binding{{}}
	for _, c := range r.Body {
		var next []rdf.Binding
		switch c.Kind {
		case ClausePattern:
			for _, b := range bindings {
				next = append(next, g.MatchBindings(c.Pattern, b)...)
			}
		case ClauseBuiltin:
			fn := builtins[c.Builtin] // existence checked by Validate
			for _, b := range bindings {
				args := make([]rdf.Term, len(c.Args))
				for i, a := range c.Args {
					args[i] = b.Resolve(a)
				}
				ok, err := fn(args)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", r.Name, err)
				}
				if ok {
					next = append(next, b)
				}
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil, nil
		}
	}

	skolemizing := r.hasHeadOnlyVars()
	var fired []Derivation
	for _, b := range bindings {
		if skolemizing {
			key := firingKey(r.Name, b)
			if e.fired[key] {
				continue
			}
			e.fired[key] = true
		}
		skolems := make(map[string]rdf.Term)
		var produced []rdf.Triple
		for _, h := range r.Head {
			inst := b.ResolveTriple(h.Pattern)
			inst = rdf.T(
				e.skolemize(inst.S, skolems),
				e.skolemize(inst.P, skolems),
				e.skolemize(inst.O, skolems),
			)
			if g.Add(inst) {
				produced = append(produced, inst)
			}
		}
		if len(produced) > 0 {
			fired = append(fired, Derivation{Rule: r.Name, Binding: b.Clone(), Produced: produced})
		}
	}
	return fired, nil
}

// hasHeadOnlyVars reports whether any head variable is never bound by a
// body pattern — the condition under which firings skolemize.
func (r Rule) hasHeadOnlyVars() bool {
	bodyVars := make(map[string]bool)
	for _, c := range r.Body {
		if c.Kind == ClausePattern {
			for _, v := range c.Pattern.Vars() {
				bodyVars[v] = true
			}
		}
	}
	for _, c := range r.Head {
		for _, v := range c.Pattern.Vars() {
			if !bodyVars[v] {
				return true
			}
		}
	}
	return false
}

// firingKey canonicalizes a (rule, binding) pair for the firing memory.
func firingKey(rule string, b rdf.Binding) string {
	return rule + "|" + b.String()
}

// skolemize replaces a head-only (still unbound) variable with a fresh
// blank node, shared across the head of a single firing.
func (e *Engine) skolemize(t rdf.Term, perFiring map[string]rdf.Term) rdf.Term {
	if !t.IsVar() {
		return t
	}
	if sk, ok := perFiring[t.Value]; ok {
		return sk
	}
	e.skolem++
	sk := rdf.Blank("sk" + strconv.Itoa(e.skolem))
	perFiring[t.Value] = sk
	return sk
}

// PaperRules returns the three rules shown in the paper's Fig. 6:
// transitivity of locatedIn, printer compatibility, and the move decision
// guarded by network response time < 1000 ms.
func PaperRules(ns *rdf.Namespaces) []Rule {
	const src = `
# Fig. 6, Rule 1: locatedIn is transitive.
[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]

# Fig. 6, Rule 2: resources of the printer type are mutually compatible.
[Rule2: (?ptr imcl:printerObj 'printer'), (?srcRsc rdf:type ?ptr), (?destRsc imcl:printerObj ?ptr)
        -> (?srcRsc imcl:compatible ?destRsc)]

# Fig. 6, Rule 3: compatible resources + good network (< 1000 ms) => move.
[Rule3: (?addr1 imcl:address ?value1), (?addr2 imcl:address ?value2),
        (?srcRsc imcl:compatible ?destRsc), (?n imcl:responseTime ?t),
        lessThan(?t, '1000'^^xsd:double)
        -> (?action imcl:actName "move"), (?action imcl:srcAddress ?addr1), (?action imcl:destAddress ?addr2)]
`
	return MustParse(src, ns)
}
