package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVarSetBasics(t *testing.T) {
	s := NewVarSet(1, 3, 70)
	if !s.Contains(1) || !s.Contains(3) || !s.Contains(70) {
		t.Fatal("missing members")
	}
	if s.Contains(2) || s.Contains(64) {
		t.Fatal("phantom members")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 2 {
		t.Fatal("Remove failed")
	}
	s.Remove(99) // no-op beyond range
	if s.Len() != 2 {
		t.Fatal("Remove out of range changed set")
	}
}

func TestVarSetOps(t *testing.T) {
	a := NewVarSet(0, 1, 2, 65)
	b := NewVarSet(2, 3, 65)
	if got := a.Union(b); got.Len() != 5 {
		t.Fatalf("union len = %d", got.Len())
	}
	if got := a.Intersect(b); got.Len() != 2 || !got.Contains(2) || !got.Contains(65) {
		t.Fatalf("intersect = %v", got)
	}
	if got := a.Subtract(b); got.Len() != 2 || !got.Contains(0) || !got.Contains(1) {
		t.Fatalf("subtract = %v", got)
	}
	if !NewVarSet(2).SubsetOf(a) || NewVarSet(3).SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if !a.Intersects(b) || a.Intersects(NewVarSet(99)) {
		t.Fatal("Intersects wrong")
	}
	if !a.Equal(NewVarSet(65, 2, 1, 0)) {
		t.Fatal("Equal wrong")
	}
	// Equal must tolerate different word lengths.
	c := NewVarSet(1)
	d := NewVarSet(1, 100)
	d.Remove(100)
	if !c.Equal(d) || !d.Equal(c) {
		t.Fatal("Equal across word lengths wrong")
	}
}

func TestVarSetAttrsSorted(t *testing.T) {
	s := NewVarSet(70, 3, 0, 128)
	got := s.Attrs()
	want := []int{0, 3, 70, 128}
	if len(got) != len(want) {
		t.Fatalf("Attrs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Attrs = %v, want %v", got, want)
		}
	}
	if s.String() != "{0,3,70,128}" {
		t.Fatalf("String = %s", s.String())
	}
}

func TestVarSetCloneIndependent(t *testing.T) {
	a := NewVarSet(1, 2)
	b := a.Clone()
	b.Add(3)
	if a.Contains(3) {
		t.Fatal("Clone aliases")
	}
}

func TestVarSetPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var s VarSet
	s.Add(-1)
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(0, 2, 64)
	if s.Len() != 3 || !s.Contains(64) {
		t.Fatal("EdgeSet basics wrong")
	}
	s.Remove(2)
	if s.Contains(2) {
		t.Fatal("Remove failed")
	}
	d := s.Subtract(NewEdgeSet(0, 1))
	if d.Len() != 1 || !d.Contains(64) {
		t.Fatal("Subtract wrong")
	}
	if !NewEdgeSet().IsEmpty() || NewEdgeSet(1).IsEmpty() {
		t.Fatal("IsEmpty wrong")
	}
}

// Property: set operations agree with a map-based model.
func TestPropertyVarSetModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := map[int]bool{}
		var s VarSet
		for op := 0; op < 60; op++ {
			a := rng.Intn(130)
			switch rng.Intn(3) {
			case 0:
				s.Add(a)
				model[a] = true
			case 1:
				s.Remove(a)
				delete(model, a)
			case 2:
				if s.Contains(a) != model[a] {
					return false
				}
			}
		}
		count := 0
		for range model {
			count++
		}
		return s.Len() == count
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (a∪b)\b ⊆ a, a∩b ⊆ a, and De Morgan-ish sanity.
func TestPropertySetAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randSet := func() VarSet {
			var s VarSet
			for i := 0; i < rng.Intn(20); i++ {
				s.Add(rng.Intn(100))
			}
			return s
		}
		a, b := randSet(), randSet()
		if !a.Union(b).Subtract(b).SubsetOf(a) {
			return false
		}
		if !a.Intersect(b).SubsetOf(a) || !a.Intersect(b).SubsetOf(b) {
			return false
		}
		if a.Union(b).Len() != a.Len()+b.Len()-a.Intersect(b).Len() {
			return false
		}
		return a.Subtract(b).Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetsOf(t *testing.T) {
	subs := SubsetsOf([]int{2, 0})
	if len(subs) != 4 {
		t.Fatalf("got %d subsets", len(subs))
	}
	keys := map[string]bool{}
	for _, s := range subs {
		keys[fmt.Sprint(s.Edges())] = true
	}
	for _, want := range []string{"[]", "[0]", "[2]", "[0 2]"} {
		if !keys[want] {
			t.Fatalf("missing subset %q", want)
		}
	}
}
