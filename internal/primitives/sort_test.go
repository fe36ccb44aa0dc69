package primitives

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

func randomRel(rng *rand.Rand, n int, dom int64) *relation.Relation {
	r := relation.New(relation.NewSchema(0, 1))
	for i := 0; i < n; i++ {
		r.AddValues(rng.Int63n(dom), rng.Int63n(dom))
	}
	return r
}

func TestSortGloballySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range []int{1, 3, 8, 16} {
		c := mpc.NewCluster(p)
		g := c.Root()
		r := randomRel(rng, 500, 1000)
		d := g.Scatter(r)
		s := Sort(g, d, []int{0, 1})
		if !IsGloballySorted(s, []int{0, 1}) {
			t.Fatalf("p=%d: not globally sorted", p)
		}
		if s.Len() != 500 {
			t.Fatalf("p=%d: lost tuples (%d)", p, s.Len())
		}
		if !s.Collect().Clone().Equal(r) {
			t.Fatalf("p=%d: multiset changed", p)
		}
	}
}

func TestSortBalanced(t *testing.T) {
	// Uniform keys must spread roughly evenly (sample sort's point).
	rng := rand.New(rand.NewSource(9))
	c := mpc.NewCluster(8)
	g := c.Root()
	d := g.Scatter(randomRel(rng, 4000, 1_000_000))
	s := Sort(g, d, []int{0})
	for _, f := range fragsOf(s) {
		if f.Len() > 4*4000/8 {
			t.Fatalf("fragment of %d tuples far above N/p", f.Len())
		}
	}
	st := c.Stats()
	if st.Rounds != 2 { // gather + route
		t.Fatalf("rounds = %d", st.Rounds)
	}
}

func TestSortSkewedKeys(t *testing.T) {
	// All-equal keys: everything lands on one server (range partition
	// cannot split equal keys) — the sort must still be correct.
	c := mpc.NewCluster(4)
	g := c.Root()
	r := relation.New(relation.NewSchema(0, 1))
	for i := int64(0); i < 100; i++ {
		r.AddValues(7, i)
	}
	d := g.Scatter(r)
	s := Sort(g, d, []int{0})
	if !IsGloballySorted(s, []int{0}) || s.Len() != 100 {
		t.Fatal("skewed sort broken")
	}
}

func TestSortEmpty(t *testing.T) {
	c := mpc.NewCluster(4)
	g := c.Root()
	d := g.Scatter(relation.New(relation.NewSchema(0)))
	s := Sort(g, d, []int{0})
	if s.Len() != 0 {
		t.Fatal("phantom tuples")
	}
}

func TestSortPanicsOnBadAttr(t *testing.T) {
	c := mpc.NewCluster(2)
	g := c.Root()
	d := g.Scatter(randomRel(rand.New(rand.NewSource(1)), 10, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sort(g, d, []int{99})
}

// Property: sorting preserves the multiset and produces a globally
// sorted layout for arbitrary seeds, sizes and server counts.
func TestPropertySortCorrect(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(12)
		n := rng.Intn(300)
		dom := int64(1 + rng.Intn(50))
		c := mpc.NewCluster(p)
		g := c.Root()
		r := randomRel(rng, n, dom)
		s := Sort(g, g.Scatter(r), []int{0, 1})
		return IsGloballySorted(s, []int{0, 1}) && s.Collect().Clone().Equal(r)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// IsGloballySorted reports whether the distributed relation is sorted
// within fragments and across fragment boundaries on the given
// attributes.
func IsGloballySorted(d *mpc.DistRelation, attrs []int) bool {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		pos[i] = d.Schema.Pos(a)
	}
	all := d.Collect()
	for i := 1; i < all.Len(); i++ {
		if lessOn(all.Row(i), all.Row(i-1), pos) {
			return false
		}
	}
	return true
}
