package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"coverpack/internal/hypergraph"
)

// schemasOf lists the relations' schemas.
func schemasOf(rels []*Relation) []Schema {
	out := make([]Schema, len(rels))
	for i, r := range rels {
		out[i] = r.Schema()
	}
	return out
}

// rel builds a relation over attrs from rows given in schema order.
func rel(attrs []int, rows ...[]Value) *Relation {
	r := New(NewSchema(attrs...))
	for _, row := range rows {
		r.Add(row)
	}
	return r
}

// nestedLoopCount is the reference the counter shares no code with: try
// every combination of one row per relation, keep the consistent ones,
// and count the distinct attribute assignments they produce.
func nestedLoopCount(rels []*Relation) int64 {
	results := make(map[string]struct{})
	assign := make(map[int]Value)
	var rec func(i int)
	rec = func(i int) {
		if i == len(rels) {
			attrs := make([]int, 0, len(assign))
			for a := range assign {
				attrs = append(attrs, a)
			}
			s := NewSchema(attrs...)
			key := ""
			for j := 0; j < s.Len(); j++ {
				key += fmt.Sprintf("%d=%d,", s.Attr(j), assign[s.Attr(j)])
			}
			results[key] = struct{}{}
			return
		}
		r := rels[i]
		for k := 0; k < r.Len(); k++ {
			row := r.Row(k)
			var bound []int
			ok := true
			for j := 0; j < r.Schema().Len() && ok; j++ {
				a := r.Schema().Attr(j)
				if v, has := assign[a]; has {
					ok = v == row[j]
				} else {
					assign[a] = row[j]
					bound = append(bound, a)
				}
			}
			if ok {
				rec(i + 1)
			}
			for _, a := range bound {
				delete(assign, a)
			}
		}
	}
	rec(0)
	return int64(len(results))
}

// instanceOf wraps an ad-hoc relation list as an Instance so that the
// materialising reference Instance.Join can run on it.
func instanceOf(rels []*Relation) *Instance {
	q := hypergraph.NewQuery("adhoc")
	for i, r := range rels {
		q.AddEdgeVars(fmt.Sprintf("L%d", i), hypergraph.NewVarSet(r.Schema().Attrs()...))
	}
	return &Instance{Query: q, Relations: rels}
}

// checkCounter asserts Count == Instance.Join().Len() == nested loop,
// and that the bound form agrees with Count on every fragment of a
// split of every relation (every re-rooting of the trees).
func checkCounter(t *testing.T, rels []*Relation, rng *rand.Rand) {
	t.Helper()
	c := NewCounter(schemasOf(rels))
	got := c.Count(rels)
	if want := nestedLoopCount(rels); got != want {
		t.Fatalf("Count = %d, nested loop = %d on %v", got, want, rels)
	}
	// Instance.Join of no relations is the empty relation, not the empty
	// tuple; the count of the empty join is 1 (core's empty context).
	if want := int64(instanceOf(rels).Join().Len()); got != want && len(rels) > 0 {
		t.Fatalf("Count = %d, Instance.Join = %d on %v", got, want, rels)
	}
	if js := JoinSizeOf(rels); js != got {
		t.Fatalf("JoinSizeOf = %d, Count = %d on %v", js, got, rels)
	}
	for vary := range rels {
		bound := c.Bind(rels, vary)
		whole := rels[vary]
		nfrag := 1 + rng.Intn(3)
		frags := make([]*Relation, nfrag)
		for i := range frags {
			frags[i] = New(whole.Schema())
		}
		for k := 0; k < whole.Len(); k++ {
			frags[rng.Intn(nfrag)].Add(whole.Row(k))
		}
		for _, f := range append(frags, whole) {
			local := append([]*Relation(nil), rels...)
			local[vary] = f
			if got, want := bound.Count(f), c.Count(local); got != want {
				t.Fatalf("bound at %d: Count(frag) = %d, Counter.Count = %d; frag %v of %v", vary, got, want, f, rels)
			}
		}
		bound.Release()
	}
}

func TestCounterTable(t *testing.T) {
	ab, bc, ca, cd, da := []int{0, 1}, []int{1, 2}, []int{0, 2}, []int{2, 3}, []int{0, 3}
	for _, tc := range []struct {
		name string
		rels []*Relation
		want int64
	}{
		{"no relations", nil, 1},
		{"single relation counts distinct rows", []*Relation{rel(ab, []Value{1, 2}, []Value{1, 2}, []Value{3, 4})}, 2},
		{"path with a dangling row on each side", []*Relation{
			rel(ab, []Value{1, 1}, []Value{2, 1}, []Value{3, 9}),
			rel(bc, []Value{1, 5}, []Value{1, 6}, []Value{7, 7}),
		}, 4},
		{"duplicates on both sides count once", []*Relation{
			rel(ab, []Value{1, 1}, []Value{1, 1}),
			rel(bc, []Value{1, 5}, []Value{1, 5}, []Value{1, 6}),
		}, 2},
		{"forest multiplies its trees", []*Relation{
			rel(ab, []Value{1, 1}, []Value{2, 1}),
			rel(cd, []Value{1, 1}, []Value{2, 2}, []Value{3, 3}),
		}, 6},
		{"star: three leaves on one key", []*Relation{
			rel([]int{0}, []Value{1}, []Value{2}),
			rel(ab, []Value{1, 1}, []Value{1, 2}, []Value{2, 1}),
			rel(ca, []Value{1, 7}, []Value{2, 7}, []Value{2, 8}),
			rel(da, []Value{1, 4}, []Value{3, 4}),
		}, 2},
		{"empty relation last", []*Relation{rel(ab, []Value{1, 1}), rel(bc)}, 0},
		{"empty relation first", []*Relation{rel(ab), rel(bc, []Value{1, 1})}, 0},
		{"empty relation in another tree", []*Relation{rel(ab, []Value{1, 1}), rel(cd)}, 0},
		{"nonempty 0-ary marker is neutral", []*Relation{
			rel(ab, []Value{1, 1}, []Value{2, 2}),
			rel(nil, []Value{}, []Value{}, []Value{}),
		}, 2},
		{"empty 0-ary marker annihilates", []*Relation{rel(ab, []Value{1, 1}), rel(nil)}, 0},
		{"only 0-ary markers", []*Relation{rel(nil, []Value{}), rel(nil, []Value{}, []Value{})}, 1},
		{"triangle (cyclic fallback)", []*Relation{
			rel(ab, []Value{1, 1}, []Value{1, 2}, []Value{2, 2}),
			rel(bc, []Value{1, 1}, []Value{2, 1}, []Value{2, 3}),
			rel(ca, []Value{1, 1}, []Value{2, 1}, []Value{2, 3}, []Value{2, 3}),
		}, 4},
		{"square (cyclic fallback)", []*Relation{
			rel(ab, []Value{1, 1}, []Value{2, 2}),
			rel(bc, []Value{1, 1}, []Value{2, 2}),
			rel(cd, []Value{1, 1}, []Value{2, 2}, []Value{2, 5}),
			rel(da, []Value{1, 1}, []Value{2, 2}, []Value{2, 5}),
		}, 3},
		{"triangle with an empty relation", []*Relation{rel(ab, []Value{1, 1}), rel(bc), rel(ca, []Value{1, 1})}, 0},
		{"triangle beside a tree and a marker", []*Relation{
			rel(ab, []Value{1, 1}),
			rel(bc, []Value{1, 1}),
			rel(ca, []Value{1, 1}),
			rel([]int{5}, []Value{1}, []Value{2}),
			rel(nil, []Value{}),
		}, 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := NewCounter(schemasOf(tc.rels)).Count(tc.rels); got != tc.want {
				t.Fatalf("Count = %d, want %d", got, tc.want)
			}
			checkCounter(t, tc.rels, rand.New(rand.NewSource(1)))
		})
	}
}

// randomRelList draws a list of up to five relations over random
// subsets of five attributes (so trees, forests, cycles and 0-ary
// markers all occur) with up to maxRows rows each over a domain small
// enough that duplicates and matches are common; relations come out
// empty now and then, and existing rows are repeated on purpose.
func randomRelList(rng *rand.Rand, maxRows int, dom int64) []*Relation {
	rels := make([]*Relation, 1+rng.Intn(5))
	for i := range rels {
		var attrs []int
		for a := 0; a < 5; a++ {
			if rng.Intn(5) < 2 {
				attrs = append(attrs, a)
			}
		}
		r := New(NewSchema(attrs...))
		n := rng.Intn(maxRows + 1)
		if rng.Intn(8) == 0 {
			n = 0
		}
		for k := 0; k < n; k++ {
			if k > 0 && rng.Intn(4) == 0 {
				r.Add(r.Row(rng.Intn(k)).Clone())
				continue
			}
			row := make(Tuple, len(attrs))
			for j := range row {
				row[j] = rng.Int63n(dom)
			}
			r.Add(row)
		}
		rels[i] = r
	}
	return rels
}

func FuzzCounterVsJoin(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(6), uint8(3))
	}
	f.Add(int64(99), uint8(0), uint8(1))
	f.Add(int64(7), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, maxRows, dom uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkCounter(t, randomRelList(rng, int(maxRows%9), 1+int64(dom%4)), rng)
	})
}

// Above smallDistinctRows the duplicate check and the per-key tables
// take their hashtab paths; the nested loop is too slow there, so the
// reference is the materialised join alone.
func TestCounterLargeRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		q   *hypergraph.Query
		dom int64
	}{{hypergraph.Figure4Join(), 14}, {hypergraph.PathJoin(4), 30}, {hypergraph.TriangleJoin(), 20}} {
		for _, withDup := range []bool{false, true} {
			in := randomInstance(tc.q, 300, tc.dom, rng)
			for e := range in.Relations {
				r := in.Relations[e].Dedup()
				if withDup {
					r.Append(r.Clone())
				}
				in.Relations[e] = r
			}
			c := NewCounter(schemasOf(in.Relations))
			want := int64(in.Join().Len())
			if got := c.Count(in.Relations); got != want || want == 0 {
				t.Fatalf("%s dup=%v: Count = %d, Join = %d (want nonzero)", tc.q.Name(), withDup, got, want)
			}
			for vary := range in.Relations {
				if got := c.Bind(in.Relations, vary).Count(in.Relations[vary]); got != want {
					t.Fatalf("%s dup=%v: bound at %d = %d, Join = %d", tc.q.Name(), withDup, vary, got, want)
				}
			}
		}
	}
}

// pathOfSquares is the path join of k binary relations each holding
// {0,1}×{0,1}: its size is 2^(k+1), reached through per-key sums of two
// equal weights at every level — the sums that used to wrap.
func pathOfSquares(k int) []*Relation {
	rels := make([]*Relation, k)
	for i := range rels {
		rels[i] = rel([]int{i, i + 1}, []Value{0, 0}, []Value{0, 1}, []Value{1, 0}, []Value{1, 1})
	}
	return rels
}

func TestCounterSaturates(t *testing.T) {
	if got, want := JoinSizeOf(pathOfSquares(61)), int64(1)<<62; got != want {
		t.Fatalf("2^62 fits and must be exact: got %d, want %d", got, want)
	}
	for _, k := range []int{62, 63, 70} {
		rels := pathOfSquares(k)
		c := NewCounter(schemasOf(rels))
		if got := c.Count(rels); got != math.MaxInt64 {
			t.Fatalf("path of %d squares: Count = %d, want MaxInt64", k, got)
		}
		if got := c.Bind(rels, k/2).Count(rels[k/2]); got != math.MaxInt64 {
			t.Fatalf("path of %d squares: bound Count = %d, want MaxInt64", k, got)
		}
	}
	for _, tc := range []struct{ a, b, want int64 }{
		{0, 0, 0}, {3, 4, 7}, {math.MaxInt64, 0, math.MaxInt64},
		{math.MaxInt64 - 1, 1, math.MaxInt64}, {math.MaxInt64 - 1, 2, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64}, {1 << 62, 1 << 62, math.MaxInt64},
	} {
		if got := AddSat(tc.a, tc.b); got != tc.want {
			t.Fatalf("AddSat(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// boundFixture is a base-case-shaped list: a varying binary relation
// joined with two context relations, one on each of its columns.
func boundFixture(rows int) (rels []*Relation, frag *Relation) {
	frag = New(NewSchema(0, 1))
	left, right := New(NewSchema(0, 2)), New(NewSchema(1, 3))
	for i := 0; i < rows; i++ {
		frag.AddValues(Value(i%8), Value(i))
	}
	for i := 0; i < 8; i++ {
		left.AddValues(Value(i), Value(i))
		left.AddValues(Value(i), Value(i+100))
	}
	for i := 0; i < rows; i += 2 {
		right.AddValues(Value(i), 0)
	}
	return []*Relation{nil, left, right}, frag
}

func TestBoundCounterCountAllocatesNothing(t *testing.T) {
	rels, frag := boundFixture(smallDistinctRows)
	bound := NewCounter([]Schema{frag.Schema(), rels[1].Schema(), rels[2].Schema()}).Bind(rels, 0)
	want := int64(smallDistinctRows) // half the rows match right, each twice in left
	if got := bound.Count(frag); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { bound.Count(frag) }); allocs != 0 {
		t.Fatalf("bound Count of a %d-row duplicate-free fragment allocates %v times, want 0", frag.Len(), allocs)
	}
}

// TestDistinctAtStackBoundary runs distinct's duplicate check on both
// sides of smallDistinctRows, with and without a duplicate, with arena
// pooling off and on. Up to the boundary the check touches no pool;
// above it it takes one arena and hands it back. Each case runs twice,
// so the second check reuses the first one's arena: a slot array not
// cleared before use would find row 0 already present.
func TestDistinctAtStackBoundary(t *testing.T) {
	defer SetPooling(PoolingEnabled())
	for _, pooling := range []bool{false, true} {
		SetPooling(pooling)
		for _, rows := range []int{smallDistinctRows, smallDistinctRows + 1} {
			for _, dup := range []bool{false, true} {
				r := New(NewSchema(0, 1))
				for r.Len() < rows {
					if i := r.Len(); dup && i == rows-1 {
						r.AddValues(0, 0)
					} else {
						r.AddValues(Value(i), Value(7*i))
					}
				}
				for run := 0; run < 2; run++ {
					before := PoolStats()
					got := distinct(r)
					after := PoolStats()
					label := fmt.Sprintf("pooling=%v rows=%d dup=%v run %d", pooling, r.Len(), dup, run)
					if dup && (got == r || !got.Equal(r.Dedup())) {
						t.Errorf("%s: duplicate not removed", label)
					}
					if !dup && got != r {
						t.Errorf("%s: duplicate-free relation copied", label)
					}
					gets, returned := after.Gets-before.Gets, (after.Puts+after.Discards)-(before.Puts+before.Discards)
					wantGets, wantReturned := uint64(0), uint64(0)
					if r.Len() > smallDistinctRows {
						wantReturned = 1
						if pooling {
							wantGets = 1
						}
					}
					if gets != wantGets || returned != wantReturned {
						t.Errorf("%s: %d arena gets, %d returned; want %d, %d", label, gets, returned, wantGets, wantReturned)
					}
				}
			}
		}
	}
}

// A bound counter is shared by the servers of a Fork: concurrent Counts
// must be race-free (run under -race) and agree with the serial answer.
func TestBoundCounterConcurrentCount(t *testing.T) {
	rels, _ := boundFixture(200)
	frags := make([]*Relation, 8)
	for g := range frags {
		_, f := boundFixture(40 + 30*g) // both sides of smallDistinctRows
		if g%2 == 1 {
			f.Add(f.Row(0).Clone()) // a duplicate: the copying path
		}
		frags[g] = f
	}
	c := NewCounter([]Schema{frags[0].Schema(), rels[1].Schema(), rels[2].Schema()})
	bound := c.Bind(rels, 0)
	want := make([]int64, len(frags))
	for g, f := range frags {
		want[g] = c.Count([]*Relation{f, rels[1], rels[2]})
	}
	var wg sync.WaitGroup
	for g := range frags {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				if got := bound.Count(frags[g]); got != want[g] {
					t.Errorf("goroutine %d: Count = %d, want %d", g, got, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCounterRejectsOtherSchemas(t *testing.T) {
	c := NewCounter([]Schema{NewSchema(0, 1), NewSchema(1, 2)})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic", name)
			}
		}()
		f()
	}
	ab, bc, cd := rel([]int{0, 1}), rel([]int{1, 2}), rel([]int{2, 3})
	mustPanic("short list", func() { c.Count([]*Relation{ab}) })
	mustPanic("wrong schema", func() { c.Count([]*Relation{ab, cd}) })
	mustPanic("wrong bound schema", func() { c.Bind([]*Relation{nil, cd}, 0) })
	mustPanic("wrong fragment schema", func() { c.Bind([]*Relation{nil, bc}, 0).Count(cd) })
}
