package relation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coverpack/internal/hypergraph"
)

// randomInstance fills each relation of q with n random tuples over a
// domain of size dom.
func randomInstance(q *hypergraph.Query, n int, dom int64, rng *rand.Rand) *Instance {
	in := NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		arity := q.EdgeVars(e).Len()
		for i := 0; i < n; i++ {
			t := make(Tuple, arity)
			for j := range t {
				t[j] = rng.Int63n(dom)
			}
			in.Rel(e).Add(t)
		}
	}
	return in
}

// bruteJoin enumerates all combinations of one tuple per relation and
// keeps the consistent ones — the obviously-correct oracle used to
// validate Instance.Join.
func bruteJoin(in *Instance) *Relation {
	q := in.Query
	outSchema := NewSchema(q.AllVars().Attrs()...)
	out := New(outSchema)
	var rec func(e int, assign map[int]Value)
	rec = func(e int, assign map[int]Value) {
		if e == q.NumEdges() {
			t := make(Tuple, outSchema.Len())
			for i, a := range outSchema.Attrs() {
				t[i] = assign[a]
			}
			out.Add(t)
			return
		}
		r := in.Rel(e).Dedup()
		for _, tp := range r.Tuples() {
			ok := true
			added := []int{}
			for i, a := range r.Schema().Attrs() {
				if v, bound := assign[a]; bound {
					if v != tp[i] {
						ok = false
						break
					}
				} else {
					assign[a] = tp[i]
					added = append(added, a)
				}
			}
			if ok {
				rec(e+1, assign)
			}
			for _, a := range added {
				delete(assign, a)
			}
		}
	}
	rec(0, map[int]Value{})
	return out
}

func TestInstanceBasics(t *testing.T) {
	q := hypergraph.SquareJoin()
	in := NewInstance(q)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	in.Rel(q.EdgeIndex("R1")).AddValues(1, 2, 3)
	in.Rel(q.EdgeIndex("R3")).AddValues(1, 5)
	if in.N() != 1 || in.TotalTuples() != 2 {
		t.Fatalf("N=%d total=%d", in.N(), in.TotalTuples())
	}
}

func TestValidateCatchesSchemaDrift(t *testing.T) {
	q := hypergraph.PathJoin(2)
	in := NewInstance(q)
	in.Relations[0] = New(NewSchema(0)) // wrong arity
	if err := in.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	tri := NewInstance(hypergraph.TriangleJoin())
	tri.Relations[2] = New(tri.Rel(0).Schema()) // right arity, wrong attributes
	if err := tri.Validate(); err == nil {
		t.Fatal("expected validation error for the first edge's schema on the third")
	}
	tri.Relations = tri.Relations[:2]
	if err := tri.Validate(); err == nil {
		t.Fatal("expected validation error for two relations on three edges")
	}
}

// Validate runs at every ExecuteOpts call: on a valid instance it
// allocates nothing.
func TestValidateAllocatesNothing(t *testing.T) {
	in := NewInstance(hypergraph.Figure4Join())
	if allocs := testing.AllocsPerRun(100, func() {
		if in.Validate() != nil {
			t.Fatal("valid instance rejected")
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocates %v times, want 0", allocs)
	}
}

// AsSets returns the instance itself when every relation is a set, and
// otherwise a new instance that shares the sets and holds the others'
// Dedup, leaving the original untouched.
func TestAsSets(t *testing.T) {
	q := hypergraph.PathJoin(2)
	in := NewInstance(q)
	for i := Value(0); i < 40; i++ {
		in.Rel(0).AddValues(i, i%3)
		in.Rel(1).AddValues(i%3, i)
	}
	if got := in.AsSets(); got != in {
		t.Fatal("instance of sets copied")
	}
	if allocs := testing.AllocsPerRun(20, func() { in.AsSets() }); allocs != 0 {
		t.Fatalf("warm AsSets of sets allocates %v times, want 0", allocs)
	}
	in.Rel(1).AddValues(0, 0) // a repeat of row 0
	got := in.AsSets()
	if got == in || got.Query != q || got.Rel(0) != in.Rel(0) {
		t.Fatal("AsSets must return a new instance sharing the query and the sets")
	}
	if got.Rel(1).Len() != 40 || in.Rel(1).Len() != 41 || !got.Rel(1).Equal(in.Rel(1).Dedup()) {
		t.Fatalf("AsSets relation 1 holds %d rows (original %d), want the 40 of its Dedup", got.Rel(1).Len(), in.Rel(1).Len())
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	queries := []*hypergraph.Query{
		hypergraph.PathJoin(3),
		hypergraph.TriangleJoin(),
		hypergraph.StarJoin(2),
		hypergraph.SquareJoin(),
		hypergraph.SemiJoinExample(),
	}
	rng := rand.New(rand.NewSource(1))
	for _, q := range queries {
		in := randomInstance(q, 12, 4, rng)
		got := in.Join().Dedup()
		want := bruteJoin(in).Dedup()
		if !got.Equal(want) {
			t.Errorf("%s: Join has %d rows, brute force %d", q.Name(), got.Len(), want.Len())
		}
	}
}

func TestJoinSizeMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range []*hypergraph.Query{
		hypergraph.PathJoin(4),
		hypergraph.StarJoin(3),
		hypergraph.Figure4Join(),
		hypergraph.TriangleJoin(), // cyclic fallback path
	} {
		in := randomInstance(q, 15, 3, rng)
		if got, want := in.JoinSize(), int64(in.Join().Dedup().Len()); got != want {
			t.Errorf("%s: JoinSize = %d, Join len = %d", q.Name(), got, want)
		}
	}
}

func TestSemiJoinReducePreservesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := hypergraph.PathJoin(4)
	in := randomInstance(q, 20, 4, rng)
	red, err := in.SemiJoinReduce()
	if err != nil {
		t.Fatal(err)
	}
	if !red.Join().Dedup().Equal(in.Join().Dedup()) {
		t.Fatal("reduction changed the join result")
	}
	// Reduction is idempotent.
	red2, err := red.SemiJoinReduce()
	if err != nil {
		t.Fatal(err)
	}
	for e := range red.Relations {
		if !red2.Rel(e).Equal(red.Rel(e)) {
			t.Fatalf("edge %d changed on second reduction", e)
		}
	}
	// After reduction every tuple participates in some join result:
	// each relation's size is at most the projection of the output.
	out := red.Join().Dedup()
	for e := 0; e < q.NumEdges(); e++ {
		attrs := q.EdgeVars(e).Attrs()
		proj := one(out.View, ProjectStep(out.schema, NewSchema(attrs...))).Dedup()
		if red.Rel(e).Len() > proj.Len() {
			t.Fatalf("edge %d keeps %d tuples but only %d participate", e, red.Rel(e).Len(), proj.Len())
		}
	}
	if _, err := NewInstance(hypergraph.TriangleJoin()).SemiJoinReduce(); err == nil {
		t.Fatal("cyclic query must be rejected")
	}
}

// Property: for random instances of a random small acyclic query,
// JoinSize agrees with brute force.
func TestPropertyAcyclicCounting(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		q := hypergraph.PathJoin(k)
		in := randomInstance(q, 3+rng.Intn(10), 3, rng)
		return in.JoinSize() == int64(bruteJoin(in).Dedup().Len())
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMulSat(t *testing.T) {
	if MulSat(0, 5) != 0 || MulSat(5, 0) != 0 {
		t.Fatal("zero cases")
	}
	if MulSat(1<<40, 1<<40) != int64(^uint64(0)>>1) {
		t.Fatal("saturation failed")
	}
	if MulSat(3, 7) != 21 {
		t.Fatal("plain multiply failed")
	}
}
