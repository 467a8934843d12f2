package rdf

import (
	"sync"
	"sync/atomic"
)

// Graph is an in-memory triple store indexed by subject, predicate, and
// object for efficient pattern matching. It is safe for concurrent use.
//
// The zero value is not ready; use NewGraph.
type Graph struct {
	mu  sync.RWMutex
	spo map[Term]map[Term]map[Term]struct{}
	pos map[Term]map[Term]map[Term]struct{}
	osp map[Term]map[Term]map[Term]struct{}
	n   int
	gen atomic.Uint64 // bumped by every Add or Remove that changes the graph
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		spo: make(map[Term]map[Term]map[Term]struct{}),
		pos: make(map[Term]map[Term]map[Term]struct{}),
		osp: make(map[Term]map[Term]map[Term]struct{}),
	}
}

func idx3add(m map[Term]map[Term]map[Term]struct{}, a, b, c Term) bool {
	mb, ok := m[a]
	if !ok {
		mb = make(map[Term]map[Term]struct{})
		m[a] = mb
	}
	mc, ok := mb[b]
	if !ok {
		mc = make(map[Term]struct{})
		mb[b] = mc
	}
	if _, exists := mc[c]; exists {
		return false
	}
	mc[c] = struct{}{}
	return true
}

func idx3del(m map[Term]map[Term]map[Term]struct{}, a, b, c Term) bool {
	mb, ok := m[a]
	if !ok {
		return false
	}
	mc, ok := mb[b]
	if !ok {
		return false
	}
	if _, exists := mc[c]; !exists {
		return false
	}
	delete(mc, c)
	if len(mc) == 0 {
		delete(mb, b)
		if len(mb) == 0 {
			delete(m, a)
		}
	}
	return true
}

// Add inserts a ground triple. It reports whether the triple was new.
// Adding a triple containing variables is a programming error and panics.
func (g *Graph) Add(tr Triple) bool {
	if !tr.IsGround() {
		panic("rdf: Add called with non-ground triple " + tr.String())
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !idx3add(g.spo, tr.S, tr.P, tr.O) {
		return false
	}
	idx3add(g.pos, tr.P, tr.O, tr.S)
	idx3add(g.osp, tr.O, tr.S, tr.P)
	g.n++
	g.gen.Add(1)
	return true
}

// Remove deletes a ground triple, reporting whether it was present.
func (g *Graph) Remove(tr Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !idx3del(g.spo, tr.S, tr.P, tr.O) {
		return false
	}
	idx3del(g.pos, tr.P, tr.O, tr.S)
	idx3del(g.osp, tr.O, tr.S, tr.P)
	g.n--
	g.gen.Add(1)
	return true
}

// Generation returns a number that changes whenever the graph gains or
// loses a triple, so a reader can tell whether what it derived from the
// graph is still current.
func (g *Graph) Generation() uint64 { return g.gen.Load() }

// Has reports whether the ground triple is present.
func (g *Graph) Has(tr Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if mb, ok := g.spo[tr.S]; ok {
		if mc, ok := mb[tr.P]; ok {
			_, ok := mc[tr.O]
			return ok
		}
	}
	return false
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.n
}

// Match returns all triples matching the pattern; variables (and zero
// Terms) act as wildcards. The result order is unspecified.
func (g *Graph) Match(pattern Triple) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.matchLocked(pattern)
}

func wild(t Term) bool { return t.Zero() || t.IsVar() }

func (g *Graph) matchLocked(p Triple) []Triple {
	var out []Triple
	switch {
	case !wild(p.S): // S bound: walk spo[S]
		mb, ok := g.spo[p.S]
		if !ok {
			return nil
		}
		for pp, mc := range mb {
			if !wild(p.P) && pp != p.P {
				continue
			}
			for oo := range mc {
				if !wild(p.O) && oo != p.O {
					continue
				}
				out = append(out, Triple{S: p.S, P: pp, O: oo})
			}
		}
	case !wild(p.P): // P bound: walk pos[P]
		mb, ok := g.pos[p.P]
		if !ok {
			return nil
		}
		for oo, ms := range mb {
			if !wild(p.O) && oo != p.O {
				continue
			}
			for ss := range ms {
				out = append(out, Triple{S: ss, P: p.P, O: oo})
			}
		}
	case !wild(p.O): // only O bound: walk osp[O]
		mb, ok := g.osp[p.O]
		if !ok {
			return nil
		}
		for ss, mp := range mb {
			for pp := range mp {
				out = append(out, Triple{S: ss, P: pp, O: p.O})
			}
		}
	default: // full scan
		for ss, mb := range g.spo {
			for pp, mc := range mb {
				for oo := range mc {
					out = append(out, Triple{S: ss, P: pp, O: oo})
				}
			}
		}
	}
	return out
}

// MatchBindings unifies the pattern against the graph under an initial
// binding and returns one extended binding per matching triple.
func (g *Graph) MatchBindings(pattern Triple, initial Binding) []Binding {
	resolved := initial.ResolveTriple(pattern)
	matches := g.Match(resolved)
	out := make([]Binding, 0, len(matches))
	for _, m := range matches {
		b := initial.Clone()
		if bindPosition(b, resolved.S, m.S) && bindPosition(b, resolved.P, m.P) && bindPosition(b, resolved.O, m.O) {
			out = append(out, b)
		}
	}
	return out
}

// bindPosition extends b so pattern term pt matches ground term gt.
// Returns false on a conflicting repeated variable (e.g. ?x ?p ?x).
func bindPosition(b Binding, pt, gt Term) bool {
	if !pt.IsVar() {
		return true // already constrained by the index lookup
	}
	if prev, ok := b[pt.Value]; ok {
		return prev == gt
	}
	b[pt.Value] = gt
	return true
}

// Subjects returns the distinct subjects of triples matching (-, p, o).
func (g *Graph) Subjects(p, o Term) []Term {
	seen := make(map[Term]struct{})
	var out []Term
	for _, tr := range g.Match(Triple{P: p, O: o}) {
		if _, dup := seen[tr.S]; !dup {
			seen[tr.S] = struct{}{}
			out = append(out, tr.S)
		}
	}
	return out
}

// Objects returns the distinct objects of triples matching (s, p, -).
func (g *Graph) Objects(s, p Term) []Term {
	seen := make(map[Term]struct{})
	var out []Term
	for _, tr := range g.Match(Triple{S: s, P: p}) {
		if _, dup := seen[tr.O]; !dup {
			seen[tr.O] = struct{}{}
			out = append(out, tr.O)
		}
	}
	return out
}
