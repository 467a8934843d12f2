// Package rules implements the forward-chaining rule engine embedded in
// MDAgent's autonomous agents (paper §4.4), substituting for Jena 2. It
// parses the paper's rule syntax —
//
//	[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]
//	[Rule3: ..., lessThan(?t, '1000'^^xsd:double) -> (?action imcl:actName "move"), ...]
//
// — and runs the rules to fixpoint over an rdf.Graph, recording derivation
// traces. Head-only variables are skolemized to fresh blank nodes per
// firing, matching Jena's temp-node behaviour.
package rules

import (
	"fmt"
	"strings"

	"mdagent/internal/rdf"
)

// ClauseKind distinguishes triple patterns from builtin calls.
type ClauseKind int

// Clause kinds.
const (
	ClausePattern ClauseKind = iota + 1
	ClauseBuiltin
)

// Clause is one element of a rule body or head: either a triple pattern
// (?s p ?o) or a builtin invocation like lessThan(?t, '1000'^^xsd:double).
type Clause struct {
	Kind    ClauseKind
	Pattern rdf.Triple // valid when Kind == ClausePattern
	Builtin string     // valid when Kind == ClauseBuiltin
	Args    []rdf.Term // builtin arguments
}

// String renders the clause in rule syntax.
func (c Clause) String() string {
	switch c.Kind {
	case ClausePattern:
		return fmt.Sprintf("(%s %s %s)", c.Pattern.S, c.Pattern.P, c.Pattern.O)
	case ClauseBuiltin:
		args := make([]string, len(c.Args))
		for i, a := range c.Args {
			args[i] = a.String()
		}
		return c.Builtin + "(" + strings.Join(args, ", ") + ")"
	default:
		return "<invalid clause>"
	}
}

// Rule is a named Horn rule: body clauses imply head patterns.
type Rule struct {
	Name string
	Body []Clause
	Head []Clause // head clauses must be patterns (no builtins)
}

// String renders the rule in the paper's bracketed syntax.
func (r Rule) String() string {
	var sb strings.Builder
	sb.WriteString("[")
	sb.WriteString(r.Name)
	sb.WriteString(": ")
	for i, c := range r.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteString(" -> ")
	for i, c := range r.Head {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteString("]")
	return sb.String()
}

// Validate checks structural well-formedness: a non-empty head of pattern
// clauses and a body whose builtins are known.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("rules: rule has no name")
	}
	if len(r.Head) == 0 {
		return fmt.Errorf("rules: %s: empty head", r.Name)
	}
	for _, c := range r.Head {
		if c.Kind != ClausePattern {
			return fmt.Errorf("rules: %s: builtin %q not allowed in head", r.Name, c.Builtin)
		}
	}
	hasPattern := false
	for _, c := range r.Body {
		switch c.Kind {
		case ClausePattern:
			hasPattern = true
		case ClauseBuiltin:
			if _, ok := builtins[c.Builtin]; !ok {
				return fmt.Errorf("rules: %s: unknown builtin %q", r.Name, c.Builtin)
			}
		default:
			return fmt.Errorf("rules: %s: invalid clause kind %d", r.Name, c.Kind)
		}
	}
	if !hasPattern && len(r.Body) > 0 {
		return fmt.Errorf("rules: %s: body has only builtins; needs at least one pattern", r.Name)
	}
	return nil
}

// builtinFunc evaluates a builtin under a binding. Arguments arrive
// resolved (bound variables substituted).
type builtinFunc func(args []rdf.Term) (bool, error)

func numeric2(name string, args []rdf.Term, cmp func(a, b float64) bool) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("rules: %s expects 2 arguments, got %d", name, len(args))
	}
	a, okA := args[0].AsFloat()
	b, okB := args[1].AsFloat()
	if !okA || !okB {
		// Unbound variables or non-numeric terms simply fail the guard.
		return false, nil
	}
	return cmp(a, b), nil
}

// builtins is the registry of guard functions usable in rule bodies.
// lessThan appears verbatim in the paper's Rule 3.
var builtins = map[string]builtinFunc{
	"lessThan": func(args []rdf.Term) (bool, error) {
		return numeric2("lessThan", args, func(a, b float64) bool { return a < b })
	},
	"greaterThan": func(args []rdf.Term) (bool, error) {
		return numeric2("greaterThan", args, func(a, b float64) bool { return a > b })
	},
	"le": func(args []rdf.Term) (bool, error) {
		return numeric2("le", args, func(a, b float64) bool { return a <= b })
	},
	"ge": func(args []rdf.Term) (bool, error) {
		return numeric2("ge", args, func(a, b float64) bool { return a >= b })
	},
	"equal": func(args []rdf.Term) (bool, error) {
		if len(args) != 2 {
			return false, fmt.Errorf("rules: equal expects 2 arguments, got %d", len(args))
		}
		if fa, ok := args[0].AsFloat(); ok {
			if fb, ok := args[1].AsFloat(); ok {
				return fa == fb, nil
			}
		}
		return args[0] == args[1], nil
	},
	"notEqual": func(args []rdf.Term) (bool, error) {
		if len(args) != 2 {
			return false, fmt.Errorf("rules: notEqual expects 2 arguments, got %d", len(args))
		}
		if fa, ok := args[0].AsFloat(); ok {
			if fb, ok := args[1].AsFloat(); ok {
				return fa != fb, nil
			}
		}
		return args[0] != args[1], nil
	},
	"bound": func(args []rdf.Term) (bool, error) {
		if len(args) != 1 {
			return false, fmt.Errorf("rules: bound expects 1 argument, got %d", len(args))
		}
		return !args[0].IsVar(), nil
	},
}
