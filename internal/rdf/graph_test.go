package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func tr(s, p, o string) Triple {
	return T(IMCL(s), IMCL(p), IMCL(o))
}

func TestAddHasRemove(t *testing.T) {
	g := NewGraph()
	x := tr("printer1", "locatedIn", "office821")
	if !g.Add(x) {
		t.Fatal("first Add reported not-new")
	}
	if g.Add(x) {
		t.Fatal("duplicate Add reported new")
	}
	if !g.Has(x) {
		t.Fatal("Has = false after Add")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if !g.Remove(x) {
		t.Fatal("Remove reported absent")
	}
	if g.Remove(x) {
		t.Fatal("second Remove reported present")
	}
	if g.Has(x) || g.Len() != 0 {
		t.Fatal("triple still visible after Remove")
	}
}

func TestAddNonGroundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with variable did not panic")
		}
	}()
	NewGraph().Add(T(Var("x"), RDFType, OWLThing))
}

func TestMatchByEachIndex(t *testing.T) {
	g := NewGraph()
	g.Add(tr("a", "p", "b"))
	g.Add(tr("a", "p", "c"))
	g.Add(tr("a", "q", "b"))
	g.Add(tr("d", "p", "b"))

	tests := []struct {
		name    string
		pattern Triple
		want    int
	}{
		{"bySubject", Triple{S: IMCL("a")}, 3},
		{"bySubjectPredicate", Triple{S: IMCL("a"), P: IMCL("p")}, 2},
		{"byPredicate", Triple{P: IMCL("p")}, 3},
		{"byObject", Triple{O: IMCL("b")}, 3},
		{"byPredicateObject", Triple{P: IMCL("p"), O: IMCL("b")}, 2},
		{"exact", tr("a", "p", "b"), 1},
		{"scanAll", Triple{}, 4},
		{"missNoSubject", Triple{S: IMCL("zz")}, 0},
		{"missWrongPair", Triple{S: IMCL("d"), P: IMCL("q")}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(g.Match(tc.pattern)); got != tc.want {
				t.Fatalf("Match(%v) returned %d triples, want %d", tc.pattern, got, tc.want)
			}
		})
	}
}

func TestMatchVariablesActAsWildcards(t *testing.T) {
	g := NewGraph()
	g.Add(tr("a", "p", "b"))
	got := g.Match(T(Var("s"), IMCL("p"), Var("o")))
	if len(got) != 1 || got[0] != tr("a", "p", "b") {
		t.Fatalf("Match with vars = %v", got)
	}
}

func TestMatchBindingsRepeatedVariable(t *testing.T) {
	g := NewGraph()
	g.Add(tr("a", "knows", "a"))
	g.Add(tr("a", "knows", "b"))
	bs := g.MatchBindings(T(Var("x"), IMCL("knows"), Var("x")), Binding{})
	if len(bs) != 1 {
		t.Fatalf("repeated var matched %d, want 1 (only the reflexive triple)", len(bs))
	}
	if bs[0]["x"] != IMCL("a") {
		t.Fatalf("bound x = %v", bs[0]["x"])
	}
}

func TestSubjectsObjectsHelpers(t *testing.T) {
	g := NewGraph()
	g.Add(tr("p1", "type", "Printer"))
	g.Add(tr("p2", "type", "Printer"))
	g.Add(tr("p1", "locatedIn", "r1"))
	subs := g.Subjects(IMCL("type"), IMCL("Printer"))
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v", subs)
	}
	objs := g.Objects(IMCL("p1"), IMCL("locatedIn"))
	if len(objs) != 1 || objs[0] != IMCL("r1") {
		t.Fatalf("Objects = %v", objs)
	}
	if objs := g.Objects(IMCL("p1"), IMCL("missing")); len(objs) != 0 {
		t.Fatalf("Objects on absent predicate = %v", objs)
	}
}

func TestConcurrentAddMatch(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.Add(tr(fmt.Sprintf("s%d-%d", w, i), "p", "o"))
				g.Match(Triple{P: IMCL("p")})
			}
		}(w)
	}
	wg.Wait()
	if g.Len() != 8*200 {
		t.Fatalf("Len = %d, want %d", g.Len(), 8*200)
	}
}

// Property: for any sequence of adds and removes, Len equals the size of a
// reference set and Has agrees with reference membership.
func TestGraphMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint16) bool {
		g := NewGraph()
		ref := make(map[Triple]bool)
		rng := rand.New(rand.NewSource(99))
		for _, op := range ops {
			x := tr(fmt.Sprintf("s%d", op%13), fmt.Sprintf("p%d", op%5), fmt.Sprintf("o%d", op%7))
			if rng.Intn(3) == 0 {
				got := g.Remove(x)
				want := ref[x]
				delete(ref, x)
				if got != want {
					return false
				}
			} else {
				got := g.Add(x)
				want := !ref[x]
				ref[x] = true
				if got != want {
					return false
				}
			}
		}
		if g.Len() != len(ref) {
			return false
		}
		for x := range ref {
			if !g.Has(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveCleansIndexes(t *testing.T) {
	g := NewGraph()
	x := tr("a", "p", "b")
	g.Add(x)
	g.Remove(x)
	// All index paths must report empty afterwards.
	for _, pattern := range []Triple{
		{S: IMCL("a")}, {P: IMCL("p")}, {O: IMCL("b")},
	} {
		if got := g.Match(pattern); len(got) != 0 {
			t.Fatalf("Match(%v) = %v after full removal", pattern, got)
		}
	}
}
