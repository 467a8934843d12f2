package rules

import (
	"fmt"
	"strconv"
	"strings"

	"mdagent/internal/rdf"
)

// Parse reads a rule document — any number of bracketed rules in the
// paper's Fig. 6 syntax, with '#' or '//' line comments — resolving
// qualified names against ns.
func Parse(src string, ns *rdf.Namespaces) ([]Rule, error) {
	p := &ruleParser{src: src, ns: ns, line: 1}
	var out []Rule
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			return out, nil
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// MustParse is Parse for statically known rule text; it panics on error.
func MustParse(src string, ns *rdf.Namespaces) []Rule {
	rs, err := Parse(src, ns)
	if err != nil {
		panic(err)
	}
	return rs
}

type ruleParser struct {
	src  string
	pos  int
	line int
	ns   *rdf.Namespaces
}

func (p *ruleParser) errf(format string, args ...any) error {
	return fmt.Errorf("rules: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *ruleParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			p.skipLine()
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/':
			p.skipLine()
		default:
			return
		}
	}
}

func (p *ruleParser) skipLine() {
	for p.pos < len(p.src) && p.src[p.pos] != '\n' {
		p.pos++
	}
}

func (p *ruleParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *ruleParser) expect(c byte) error {
	p.skipWS()
	if p.peek() != c {
		return p.errf("expected %q, got %q", string(c), string(p.peek()))
	}
	p.pos++
	return nil
}

func (p *ruleParser) parseRule() (Rule, error) {
	var r Rule
	if err := p.expect('['); err != nil {
		return r, err
	}
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' && p.src[p.pos] != '\n' {
		p.pos++
	}
	if p.peek() != ':' {
		return r, p.errf("rule name must end with ':'")
	}
	r.Name = strings.TrimSpace(p.src[start:p.pos])
	p.pos++

	body, err := p.parseClauseList("->")
	if err != nil {
		return r, err
	}
	r.Body = body
	head, err := p.parseClauseList("]")
	if err != nil {
		return r, err
	}
	r.Head = head
	return r, nil
}

// parseClauseList reads comma-separated clauses until the terminator
// ("->" or "]"), consuming the terminator.
func (p *ruleParser) parseClauseList(term string) ([]Clause, error) {
	var out []Clause
	for {
		p.skipWS()
		if strings.HasPrefix(p.src[p.pos:], term) {
			p.pos += len(term)
			return out, nil
		}
		c, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		p.skipWS()
		if p.peek() == ',' {
			p.pos++
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], term) {
			p.pos += len(term)
			return out, nil
		}
		return nil, p.errf("expected ',' or %q after clause, got %q", term, string(p.peek()))
	}
}

func (p *ruleParser) parseClause() (Clause, error) {
	p.skipWS()
	if p.peek() == '(' {
		p.pos++
		s, err := p.parseTerm()
		if err != nil {
			return Clause{}, err
		}
		pr, err := p.parseTerm()
		if err != nil {
			return Clause{}, err
		}
		o, err := p.parseTerm()
		if err != nil {
			return Clause{}, err
		}
		if err := p.expect(')'); err != nil {
			return Clause{}, err
		}
		return Clause{Kind: ClausePattern, Pattern: rdf.T(s, pr, o)}, nil
	}
	// Builtin: name(args...).
	start := p.pos
	for p.pos < len(p.src) && isIdentByte(p.src[p.pos]) {
		p.pos++
	}
	name := p.src[start:p.pos]
	if name == "" {
		return Clause{}, p.errf("expected '(' or builtin name, got %q", string(p.peek()))
	}
	if err := p.expect('('); err != nil {
		return Clause{}, err
	}
	var args []rdf.Term
	for {
		p.skipWS()
		if p.peek() == ')' {
			p.pos++
			break
		}
		a, err := p.parseTerm()
		if err != nil {
			return Clause{}, err
		}
		args = append(args, a)
		p.skipWS()
		if p.peek() == ',' {
			p.pos++
		}
	}
	return Clause{Kind: ClauseBuiltin, Builtin: name, Args: args}, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func isTermByte(c byte) bool {
	return isIdentByte(c) || c == ':' || c == '-' || c == '.' || c == '#' || c == '/'
}

// parseTerm reads one rule term: ?var, 'literal' or "literal" (with
// optional ^^datatype), <iri>, a bare number, or a qualified name.
func (p *ruleParser) parseTerm() (rdf.Term, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return rdf.Term{}, p.errf("unexpected end of rule")
	}
	c := p.src[p.pos]
	switch {
	case c == '?':
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && isIdentByte(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return rdf.Term{}, p.errf("empty variable name")
		}
		return rdf.Var(p.src[start:p.pos]), nil
	case c == '\'' || c == '"':
		return p.parseQuoted(c)
	case c == '<':
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '>' {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return rdf.Term{}, p.errf("unterminated IRI")
		}
		iri := p.src[start:p.pos]
		p.pos++
		return rdf.IRI(iri), nil
	case c == '-' || c == '+' || (c >= '0' && c <= '9'):
		start := p.pos
		p.pos++
		isFloat := false
		for p.pos < len(p.src) {
			d := p.src[p.pos]
			if d >= '0' && d <= '9' {
				p.pos++
				continue
			}
			if d == '.' || d == 'e' || d == 'E' {
				isFloat = true
				p.pos++
				continue
			}
			break
		}
		lex := p.src[start:p.pos]
		if isFloat {
			if _, err := strconv.ParseFloat(lex, 64); err != nil {
				return rdf.Term{}, p.errf("bad number %q", lex)
			}
			return rdf.TypedLit(lex, rdf.XSDDouble), nil
		}
		if _, err := strconv.ParseInt(lex, 10, 64); err != nil {
			return rdf.Term{}, p.errf("bad integer %q", lex)
		}
		return rdf.TypedLit(lex, rdf.XSDInteger), nil
	default:
		start := p.pos
		for p.pos < len(p.src) && isTermByte(p.src[p.pos]) {
			p.pos++
		}
		word := p.src[start:p.pos]
		if word == "" {
			return rdf.Term{}, p.errf("unexpected character %q", string(c))
		}
		switch word {
		case "true":
			return rdf.Bool(true), nil
		case "false":
			return rdf.Bool(false), nil
		}
		t, err := p.ns.Expand(word)
		if err != nil {
			return rdf.Term{}, p.errf("%v", err)
		}
		return t, nil
	}
}

// parseQuoted reads 'lex' or "lex" with optional ^^datatype suffix, the
// form the paper uses in Rule 3: '1000'^^xsd:double.
func (p *ruleParser) parseQuoted(quote byte) (rdf.Term, error) {
	p.pos++ // opening quote
	var sb strings.Builder
	for p.pos < len(p.src) && p.src[p.pos] != quote {
		if p.src[p.pos] == '\n' {
			return rdf.Term{}, p.errf("newline in literal")
		}
		sb.WriteByte(p.src[p.pos])
		p.pos++
	}
	if p.pos >= len(p.src) {
		return rdf.Term{}, p.errf("unterminated literal")
	}
	p.pos++ // closing quote
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		start := p.pos
		if p.peek() == '<' {
			p.pos++
			s2 := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '>' {
				p.pos++
			}
			if p.pos >= len(p.src) {
				return rdf.Term{}, p.errf("unterminated datatype IRI")
			}
			iri := p.src[s2:p.pos]
			p.pos++
			return rdf.TypedLit(sb.String(), iri), nil
		}
		for p.pos < len(p.src) && isTermByte(p.src[p.pos]) {
			p.pos++
		}
		dt, err := p.ns.Expand(p.src[start:p.pos])
		if err != nil {
			return rdf.Term{}, p.errf("%v", err)
		}
		return rdf.TypedLit(sb.String(), dt.Value), nil
	}
	return rdf.Lit(sb.String()), nil
}
