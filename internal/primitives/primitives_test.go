package primitives

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

const (
	wAttr = 1000 // synthetic weight/count attribute for tests
	gAttr = 1001 // synthetic group attribute
)

func TestReduceByKey(t *testing.T) {
	c := mpc.NewCluster(4)
	g := c.Root()
	r := relation.New(relation.NewSchema(0, wAttr))
	for i := int64(0); i < 60; i++ {
		r.AddValues(i%6, 1)
	}
	d := g.Scatter(r)
	out := ReduceByKey(g, d, []int{0}, wAttr)
	all := out.Collect()
	if all.Len() != 6 {
		t.Fatalf("distinct keys = %d", all.Len())
	}
	for _, tp := range all.Tuples() {
		if all.Get(tp, wAttr) != 10 {
			t.Fatalf("key %d sum = %d", all.Get(tp, 0), all.Get(tp, wAttr))
		}
	}
	// Pre-aggregation bound: the exchange moves at most
	// servers × distinct keys rows.
	if st := c.Stats(); st.TotalUnits > 4*6 {
		t.Fatalf("pre-aggregation not effective: %v", st)
	}
}

func TestDegrees(t *testing.T) {
	c := mpc.NewCluster(3)
	g := c.Root()
	r := relation.New(relation.NewSchema(0, 1))
	// Value v appears v+1 times, v in 0..4.
	for v := int64(0); v < 5; v++ {
		for j := int64(0); j <= v; j++ {
			r.AddValues(v, j)
		}
	}
	d := g.Scatter(r)
	deg := Degrees(g, d, 0, wAttr).Collect()
	if deg.Len() != 5 {
		t.Fatalf("distinct = %d", deg.Len())
	}
	for _, tp := range deg.Tuples() {
		if deg.Get(tp, wAttr) != deg.Get(tp, 0)+1 {
			t.Fatalf("deg(%d) = %d", deg.Get(tp, 0), deg.Get(tp, wAttr))
		}
	}
}

func TestSemiJoinDistributed(t *testing.T) {
	c := mpc.NewCluster(4)
	g := c.Root()
	r := relation.New(relation.NewSchema(0, 1))
	s := relation.New(relation.NewSchema(1, 2))
	for i := int64(0); i < 50; i++ {
		r.AddValues(i, i%10)
	}
	for j := int64(0); j < 5; j++ {
		s.AddValues(j, j+100) // keeps r-tuples with i%10 in 0..4
	}
	rd, sd := g.Scatter(r), g.Scatter(s)
	out := SemiJoin(g, rd, sd)
	if out.Len() != 25 {
		t.Fatalf("semi-join kept %d, want 25", out.Len())
	}
	// Cross-check against the local operator.
	if !out.Collect().Clone().Equal(r.SemiJoin(s)) {
		t.Fatal("distributed semi-join disagrees with local")
	}
	// Disjoint-schema cases.
	e := g.Scatter(relation.New(relation.NewSchema(7)))
	if got := SemiJoin(g, rd, e); got.Len() != 0 {
		t.Fatal("semi-join against empty disjoint should be empty")
	}
	ne := relation.New(relation.NewSchema(7))
	ne.AddValues(1)
	if got := SemiJoin(g, rd, g.Scatter(ne)); got.Len() != rd.Len() {
		t.Fatal("semi-join against nonempty disjoint should keep all")
	}
}

func TestSemiJoinReduceTree(t *testing.T) {
	q := hypergraph.PathJoin(3)
	tree, _ := hypergraph.GYO(q)
	children := make([][]int, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		children[e] = tree.Children(e)
	}
	// R1(X1,X2), R2(X2,X3), R3(X3,X4) with only a single chain viable.
	in := relation.NewInstance(q)
	in.Rel(0).AddValues(1, 2)
	in.Rel(0).AddValues(9, 9) // dangling
	in.Rel(1).AddValues(2, 3)
	in.Rel(2).AddValues(3, 4)
	in.Rel(2).AddValues(8, 8) // dangling

	c := mpc.NewCluster(2)
	g := c.Root()
	rels := make([]*mpc.DistRelation, q.NumEdges())
	for e := range rels {
		rels[e] = g.Scatter(in.Rel(e))
	}
	red := SemiJoinReduceTree(g, rels, children, tree.Roots())
	for e := range red {
		if red[e].Len() != 1 {
			t.Fatalf("edge %d kept %d tuples, want 1", e, red[e].Len())
		}
	}
	// Against the sequential reducer.
	seq, err := in.SemiJoinReduce()
	if err != nil {
		t.Fatal(err)
	}
	for e := range red {
		if !red[e].Collect().Clone().Equal(seq.Rel(e)) {
			t.Fatalf("edge %d disagrees with sequential reduction", e)
		}
	}
}

func TestPack(t *testing.T) {
	c := mpc.NewCluster(3)
	g := c.Root()
	// 30 values of weight 3 each, capacity 10.
	w := relation.New(relation.NewSchema(0, wAttr))
	for v := int64(0); v < 30; v++ {
		w.AddValues(v, 3)
	}
	res := Pack(g, g.Scatter(w), 0, wAttr, gAttr, 10)
	if res.Assign.Len() != 30 {
		t.Fatalf("assigned %d values", res.Assign.Len())
	}
	// Every group's total weight <= capacity; group ids dense.
	loads := map[int64]int64{}
	all := res.Assign.Collect()
	for _, tp := range all.Tuples() {
		loads[all.Get(tp, gAttr)] += 3
	}
	for id, l := range loads {
		if l > 10 {
			t.Fatalf("group %d overloaded: %d", id, l)
		}
		if id < 0 || id >= int64(res.NumGroups) {
			t.Fatalf("group id %d out of range %d", id, res.NumGroups)
		}
	}
	// Group count bound: 2W/C + p = 18+3.
	if res.NumGroups > 21 {
		t.Fatalf("groups = %d, bound 21", res.NumGroups)
	}
	if res.NumGroups < 9 { // W/C = 9 is a hard floor
		t.Fatalf("groups = %d below floor", res.NumGroups)
	}
}

// TestPackMatchesNextFit: every server's rows come out by ascending
// value, each with the next-fit bin it takes on its own server offset
// by the bins of the servers before it — checked against a per-tuple
// reference, over servers with no rows and a value order the input does
// not have.
func TestPackMatchesNextFit(t *testing.T) {
	const capacity = 10
	rng := rand.New(rand.NewSource(9))
	schema := relation.NewSchema(0, wAttr)
	var frags []*relation.Relation
	for s, n := range []int{7, 0, 1, 40, 0, 13} {
		f := relation.New(schema)
		for _, v := range rng.Perm(n) {
			f.AddValues(int64(100*s+v), rng.Int63n(capacity)+1)
		}
		frags = append(frags, f)
	}
	d := distOf(schema, frags)
	res := Pack(mpc.NewCluster(d.Servers()).Root(), d, 0, wAttr, gAttr, capacity)
	first := 0
	for s, f := range frags {
		rows := slices.Clone(f.Tuples())
		slices.SortFunc(rows, func(a, b relation.Tuple) int { return int(a[0] - b[0]) })
		want := relation.New(relation.NewSchema(0, gAttr))
		bin, load := first, int64(0)
		for i, r := range rows {
			if i > 0 && load+r[1] > capacity {
				bin, load = bin+1, 0
			}
			load += r[1]
			want.AddValues(r[0], int64(bin))
		}
		if len(rows) > 0 {
			first = bin + 1
		}
		got := res.Assign.Frag(s)
		if !got.Schema().Equal(want.Schema()) || !slices.Equal(got.Data(), want.Data()) {
			t.Fatalf("server %d: Pack rows %v, want %v", s, got.Tuples(), want.Tuples())
		}
	}
	if res.NumGroups != first {
		t.Fatalf("NumGroups = %d, want %d", res.NumGroups, first)
	}
}

// TestUnion: fragment i of a union is fragment i of every part, in
// order; one part is its own union, and mismatched parts panic.
func TestUnion(t *testing.T) {
	g := mpc.NewCluster(3).Root()
	rng := rand.New(rand.NewSource(4))
	a, b := fragmented(rng, []int{5, 0, 2}, 9), fragmented(rng, []int{0, 3, 4}, 9)
	u := Union(g, []*mpc.DistRelation{a, b, a})
	for i := range u.Servers() {
		f := u.Frag(i)
		want := slices.Concat(a.Frag(i).Clone().Data(), b.Frag(i).Clone().Data(), a.Frag(i).Clone().Data())
		if f.Len() != 2*a.FragLen(i)+b.FragLen(i) || !slices.Equal(f.Data(), want) {
			t.Fatalf("fragment %d: %v, want rows %v", i, f.Tuples(), want)
		}
	}
	if Union(g, []*mpc.DistRelation{a}) != a {
		t.Fatal("a one-part union is not its part")
	}
	if st := g.Stats(); st.Rounds != 0 || st.TotalUnits != 0 {
		t.Fatalf("Union charged %v", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a union of different schemas should panic")
		}
	}()
	Union(g, []*mpc.DistRelation{a, mpc.NewDist(relation.NewSchema(0), 3)})
}

func TestPackPanics(t *testing.T) {
	c := mpc.NewCluster(1)
	g := c.Root()
	w := relation.New(relation.NewSchema(0, wAttr))
	w.AddValues(1, 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("capacity 0 should panic")
			}
		}()
		Pack(g, g.Scatter(w), 0, wAttr, gAttr, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized weight should panic")
			}
		}()
		Pack(g, g.Scatter(w), 0, wAttr, gAttr, 3)
	}()
}

func buildDistInstance(t *testing.T, g *mpc.Group, q *hypergraph.Query, n int, dom int64, seed int64) (*relation.Instance, []*mpc.DistRelation, [][]int, *hypergraph.JoinTree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		seen := map[string]bool{}
		arity := q.EdgeVars(e).Len()
		maxDistinct := 1
		for i := 0; i < arity && maxDistinct < n; i++ {
			maxDistinct *= int(dom)
		}
		want := n
		if maxDistinct < want {
			want = maxDistinct
		}
		for len(seen) < want {
			tp := make(relation.Tuple, arity)
			for j := range tp {
				tp[j] = rng.Int63n(dom)
			}
			k := relation.Key(tp, idxs(arity))
			if !seen[k] {
				seen[k] = true
				in.Rel(e).Add(tp)
			}
		}
	}
	tree, ok := hypergraph.GYO(q)
	if !ok {
		t.Fatalf("%s not acyclic", q.Name())
	}
	children := make([][]int, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		children[e] = tree.Children(e)
	}
	rels := make([]*mpc.DistRelation, q.NumEdges())
	for e := range rels {
		rels[e] = g.Scatter(in.Rel(e))
	}
	return in, rels, children, tree
}

func idxs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestJoinCountMatchesOracle(t *testing.T) {
	for _, q := range []*hypergraph.Query{
		hypergraph.PathJoin(3),
		hypergraph.StarJoin(3),
		hypergraph.Figure4Join(),
	} {
		c := mpc.NewCluster(4)
		g := c.Root()
		in, rels, children, tree := buildDistInstance(t, g, q, 25, 4, 42)
		roots := tree.Roots()
		if len(roots) != 1 {
			t.Fatalf("%s: expected single root", q.Name())
		}
		got := JoinCount(g, rels, children, roots[0], wAttr)
		want := in.JoinSize()
		if got != want {
			t.Errorf("%s: JoinCount = %d, oracle = %d", q.Name(), got, want)
		}
	}
}

func TestJoinCountBy(t *testing.T) {
	q := hypergraph.PathJoin(3)
	c := mpc.NewCluster(4)
	g := c.Root()
	in, rels, children, tree := buildDistInstance(t, g, q, 25, 4, 7)
	roots := tree.Roots()
	// Group by an attribute of the root relation.
	rootRel := rels[roots[0]]
	x := rootRel.Schema.Attrs()[0]
	byX := JoinCountBy(g, rels, children, roots[0], x, wAttr).Collect()

	// Oracle: full join, group by x.
	full := in.Join()
	counts := map[relation.Value]int64{}
	for _, tp := range full.Tuples() {
		counts[full.Get(tp, x)]++
	}
	if byX.Len() != len(counts) {
		t.Fatalf("groups = %d, want %d", byX.Len(), len(counts))
	}
	for _, tp := range byX.Tuples() {
		v := byX.Get(tp, x)
		if byX.Get(tp, wAttr) != counts[v] {
			t.Fatalf("count(%d) = %d, want %d", v, byX.Get(tp, wAttr), counts[v])
		}
	}
	// Missing attribute panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-root attribute")
			}
		}()
		JoinCountBy(g, rels, children, roots[0], 9999, wAttr)
	}()
}

// TestJoinCountSaturates: StarJoin(5) with every shared attribute on
// one hub value and 10 000 rows in each arm has 10²⁰ results, past
// MaxInt64. The count DP saturates, as JoinSize does, whether the
// overflow happens in the weight product (rooted at the centre R0) or
// in the sums (rooted at the arm R1).
func TestJoinCountSaturates(t *testing.T) {
	q := hypergraph.StarJoin(5)
	in := relation.NewInstance(q)
	in.Rel(0).AddValues(0, 0, 0, 0, 0)
	for e := 1; e <= 5; e++ {
		for i := int64(0); i < 10000; i++ {
			in.Rel(e).AddValues(0, i)
		}
	}
	if got := in.JoinSize(); got != math.MaxInt64 {
		t.Fatalf("JoinSize = %d, want MaxInt64", got)
	}
	for _, tc := range []struct {
		name     string
		children [][]int
		root     int
	}{
		{"centre", [][]int{{1, 2, 3, 4, 5}, {}, {}, {}, {}, {}}, 0},
		{"arm", [][]int{{2, 3, 4, 5}, {0}, {}, {}, {}, {}}, 1},
	} {
		g := mpc.NewCluster(4).Root()
		rels := make([]*mpc.DistRelation, q.NumEdges())
		for e := range rels {
			rels[e] = g.Scatter(in.Rel(e))
		}
		if got := JoinCount(g, rels, tc.children, tc.root, wAttr); got != math.MaxInt64 {
			t.Errorf("%s: JoinCount = %d, want MaxInt64", tc.name, got)
		}
		x := rels[tc.root].Schema.Attr(0)
		by := JoinCountBy(g, rels, tc.children, tc.root, x, wAttr).Collect()
		if by.Len() != 1 || by.Get(by.Row(0), x) != 0 || by.Get(by.Row(0), wAttr) != math.MaxInt64 {
			t.Errorf("%s: JoinCountBy = %v, want the one hub row with MaxInt64", tc.name, by)
		}
	}
}

func TestJoinCountDisconnectedComponentViaCartesian(t *testing.T) {
	// A tree whose root shares no attributes with its child component
	// exercises the Cartesian branch of multiplyWeights. Build it
	// manually: R0(A) with child R1(B) (no common attrs).
	q := hypergraph.MustParse("cart", "R0(A) R1(B)")
	c := mpc.NewCluster(2)
	g := c.Root()
	in := relation.NewInstance(q)
	for i := int64(0); i < 4; i++ {
		in.Rel(0).AddValues(i)
	}
	for i := int64(0); i < 5; i++ {
		in.Rel(1).AddValues(i)
	}
	rels := []*mpc.DistRelation{g.Scatter(in.Rel(0)), g.Scatter(in.Rel(1))}
	children := [][]int{{1}, {}}
	if got := JoinCount(g, rels, children, 0, wAttr); got != 20 {
		t.Fatalf("Cartesian count = %d, want 20", got)
	}
}

// TestDegreesMatchesReduceByKey: Degrees counts each fragment's column
// in one pass; ReduceByKey over a test-built (value, 1) relation is the
// reference. Every fragment of the output — rows, order and placement —
// and the charged cost must be the same, on both sides of the kernel's
// linear-scan cutoff and of the arena chunk size, on one worker and on
// four.
func TestDegreesMatchesReduceByKey(t *testing.T) {
	const p = 4
	for _, size := range []int{0, 1, 32, 33, 256, 257, 10000} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("size=%d,workers=%d", size, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(size)))
				ins, oneRels := make([]*relation.Relation, p), make([]*relation.Relation, p)
				for s := 0; s < p; s++ {
					ins[s], oneRels[s] = relation.New(relation.NewSchema(0, 1)), relation.New(relation.NewSchema(0, wAttr))
					for i := 0; i < size; i++ {
						v := rng.Int63n(int64(size)/3 + 2)
						ins[s].AddValues(v, int64(i))
						oneRels[s].AddValues(v, 1)
					}
				}
				in, ones := distOf(relation.NewSchema(0, 1), ins), distOf(relation.NewSchema(0, wAttr), oneRels)
				gc := mpc.NewCluster(p, mpc.WithWorkers(workers))
				got := Degrees(gc.Root(), in, 0, wAttr)
				wc := mpc.NewCluster(p, mpc.WithWorkers(workers))
				want := ReduceByKey(wc.Root(), ones, []int{0}, wAttr)
				for s := range want.Servers() {
					g, w := got.Frag(s), want.Frag(s)
					if !g.Schema().Equal(w.Schema()) || g.Len() != w.Len() || !slices.Equal(g.Data(), w.Data()) {
						t.Fatalf("server %d: Degrees %v, ReduceByKey %v", s, g, w)
					}
				}
				if gc.Stats() != wc.Stats() {
					t.Fatalf("Degrees charged %+v, ReduceByKey %+v", gc.Stats(), wc.Stats())
				}
			})
		}
	}
}
