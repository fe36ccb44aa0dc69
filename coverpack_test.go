package coverpack

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

func TestAnalyzeSquare(t *testing.T) {
	q := MustParseQuery("square", "R1(A,B,C) R2(D,E,F) R3(A,D) R4(B,E) R5(C,F)")
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho.Cmp(big.NewRat(2, 1)) != 0 || a.Tau.Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("rho=%s tau=%s", a.Rho.RatString(), a.Tau.RatString())
	}
	if a.Acyclic || !a.DegreeTwo || !a.EdgePackingProvable {
		t.Fatalf("classification wrong: %+v", a)
	}
	if a.Class() != "edge-packing-provable" {
		t.Fatalf("class = %s", a.Class())
	}
	// Lower-bound exponent 1/τ* = 1/3, strictly below 1/ρ* = 1/2.
	if a.LowerBoundExponent >= a.MultiRoundExponent {
		t.Fatalf("exponents: lower %.3f, multi %.3f", a.LowerBoundExponent, a.MultiRoundExponent)
	}
}

func TestAnalyzeLine3(t *testing.T) {
	q := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Acyclic || !a.BergeAcyclic || a.RHierarchical {
		t.Fatalf("classification wrong: %+v", a)
	}
	if a.Class() != "berge-acyclic" {
		t.Fatalf("class = %s", a.Class())
	}
}

func TestExecuteAllAlgorithmsAgree(t *testing.T) {
	q := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	in := Uniform(q, 150, 25, 3)
	var want int64 = -1
	for _, alg := range []Algorithm{
		AlgAcyclicOptimal, AlgAcyclicConservative, AlgHyperCube, AlgSkewAware, AlgYannakakis,
	} {
		rep, err := Execute(alg, in, 8)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if want == -1 {
			want = rep.Emitted
		} else if rep.Emitted != want {
			t.Errorf("%v: emitted %d, others %d", alg, rep.Emitted, want)
		}
		if rep.Stats.MaxLoad <= 0 {
			t.Errorf("%v: no load recorded", alg)
		}
	}
	if want != in.JoinSize() {
		t.Fatalf("all algorithms agree on %d but oracle says %d", want, in.JoinSize())
	}
}

// TestExecuteYannakakisEmptyFirstComponent: R1(A,B) R2(B,C) R3(D,E)
// with R1 ⋈ R2 empty emits nothing, however many rows R3 holds.
func TestExecuteYannakakisEmptyFirstComponent(t *testing.T) {
	in := relation.NewInstance(MustParseQuery("disc-empty", "R1(A,B) R2(B,C) R3(D,E)"))
	in.Rel(0).Add(relation.Tuple{1, 2})
	in.Rel(1).Add(relation.Tuple{3, 4})
	in.Rel(2).Add(relation.Tuple{5, 6})
	in.Rel(2).Add(relation.Tuple{7, 8})
	if in.JoinSize() != 0 {
		t.Fatalf("oracle %d, want 0", in.JoinSize())
	}
	for _, w := range []int{1, 4} {
		rep, err := ExecuteOpts(AlgYannakakis, in, 4, ExecOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Emitted != 0 {
			t.Errorf("workers=%d: emitted %d, want 0", w, rep.Emitted)
		}
	}
}

func TestExecuteRejectsCyclicForAcyclicAlgs(t *testing.T) {
	q := MustParseQuery("tri", "R1(A,B) R2(B,C) R3(A,C)")
	in := Matching(q, 10)
	if _, err := Execute(AlgAcyclicOptimal, in, 4); err == nil {
		t.Fatal("expected rejection")
	}
	if _, err := Execute(AlgYannakakis, in, 4); err == nil {
		t.Fatal("expected rejection")
	}
	// HyperCube handles cyclic queries.
	rep, err := Execute(AlgHyperCube, in, 4)
	if err != nil || rep.Emitted != 10 {
		t.Fatalf("hypercube on triangle: %v, emitted %d", err, rep.Emitted)
	}
}

// allAlgorithms lists every algorithm ExecuteOpts dispatches.
var allAlgorithms = []Algorithm{
	AlgAcyclicOptimal, AlgAcyclicConservative, AlgHyperCube, AlgSkewAware,
	AlgYannakakis, AlgTriangle, AlgLoomisWhitney,
}

// withRepeats returns a copy of in in which every third row of every
// relation is followed by itself and by an earlier row again, so that
// each relation's Dedup is the original relation.
func withRepeats(in *Instance) *Instance {
	out := &Instance{Query: in.Query, Relations: make([]*relation.Relation, len(in.Relations))}
	for e, r := range in.Relations {
		rr := relation.New(r.Schema())
		for i := 0; i < r.Len(); i++ {
			rr.Add(r.Row(i))
			if i%3 == 0 {
				rr.Add(r.Row(i))
				rr.Add(r.Row(i / 2))
			}
		}
		out.Relations[e] = rr
	}
	return out
}

// TestRepeatedRowsRunAsTheirSets: a relation is a set from ExecuteOpts
// on, so every algorithm reports the same emitted count and the same
// cost on an instance with repeated rows as on its deduplicated copy,
// and never ships a repeat.
func TestRepeatedRowsRunAsTheirSets(t *testing.T) {
	tri := MustParseQuery("tri", "R1(A,B) R2(B,C) R3(A,C)")
	line3 := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	for _, base := range []*Instance{Uniform(tri, 300, 30, 5), HeavyHub(tri, 200), Uniform(line3, 300, 25, 3), HeavyHub(line3, 200)} {
		rep, js := withRepeats(base), base.JoinSize()
		dedup := &Instance{Query: rep.Query, Relations: make([]*relation.Relation, len(rep.Relations))}
		for e, r := range rep.Relations {
			if dedup.Relations[e] = r.Dedup(); !dedup.Relations[e].Equal(base.Rel(e)) || r.Len() == base.Rel(e).Len() {
				t.Fatalf("%s: repeated copy of relation %d is not a superset with repeats", base.Query.Name(), e)
			}
		}
		for _, alg := range allAlgorithms {
			for _, w := range []int{1, 4} {
				eo := ExecOptions{Workers: w}
				want, errWant := ExecuteOpts(alg, dedup, 8, eo)
				got, errGot := ExecuteOpts(alg, rep, 8, eo)
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("%s %v: error %v on repeats, %v on the set", base.Query.Name(), alg, errGot, errWant)
				}
				if errWant != nil {
					continue // an acyclic algorithm on the triangle
				}
				if got.Emitted != want.Emitted || got.Stats != want.Stats {
					t.Errorf("%s %v workers %d: repeats emit %d at %v, the set %d at %v",
						base.Query.Name(), alg, w, got.Emitted, got.Stats, want.Emitted, want.Stats)
				}
				if got.Emitted != js {
					t.Errorf("%s %v: emitted %d, join size %d", base.Query.Name(), alg, got.Emitted, js)
				}
			}
		}
	}
}

// TestMalformedInstanceIsAnError: an instance that does not fit its
// query is an error from every algorithm, raised at the door, not a
// panic or a wrong count inside the run.
func TestMalformedInstanceIsAnError(t *testing.T) {
	tri := MustParseQuery("tri", "R1(A,B) R2(B,C) R3(A,C)")
	swapped := Uniform(tri, 50, 10, 1)
	swapped.Relations[2] = swapped.Rel(0) // the first edge's schema on the third
	short := Uniform(tri, 50, 10, 1)
	short.Relations = short.Relations[:2] // two relations for three edges
	missing := Uniform(tri, 50, 10, 1)
	missing.Relations[1] = nil
	for name, in := range map[string]*Instance{
		"swapped schema": swapped, "two relations": short, "nil relation": missing, "no query": {}, "no instance": nil,
	} {
		for _, alg := range allAlgorithms {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s, %v: panic %v", name, alg, r)
					}
				}()
				if _, err := Execute(alg, in, 8); err == nil || !strings.HasPrefix(err.Error(), "relation: ") {
					t.Errorf("%s, %v: error %v, want the instance check's", name, alg, err)
				}
			}()
		}
	}
}

// TestNonpositiveServersRejected: a server count below 1 is an input
// error, returned before any cluster is built.
func TestNonpositiveServersRejected(t *testing.T) {
	in := Matching(MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)"), 10)
	entries := []struct {
		name string
		run  func(p int) error
	}{
		{"Execute", func(p int) error { _, err := Execute(AlgYannakakis, in, p); return err }},
		{"ExecuteOpts", func(p int) error { _, err := ExecuteOpts(AlgYannakakis, in, p, ExecOptions{Workers: 4}); return err }},
		{"TraceRun", func(p int) error { _, err := TraceRun(AlgAcyclicOptimal, in, p); return err }},
	}
	for _, e := range entries {
		for _, p := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s/p=%d", e.name, p), func(t *testing.T) {
				want := fmt.Sprintf("coverpack: p must be >= 1, got %d", p)
				if err := e.run(p); err == nil || err.Error() != want {
					t.Errorf("error %v, want %q", err, want)
				}
			})
		}
	}
}

func TestExecuteTriangleMultiRound(t *testing.T) {
	q := MustParseQuery("tri", "R1(A,B) R2(B,C) R3(A,C)")
	in := Uniform(q, 300, 40, 5)
	want := in.JoinSize()
	rep, err := Execute(AlgTriangle, in, 27)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Emitted != want {
		t.Fatalf("emitted %d, want %d", rep.Emitted, want)
	}
	// The acyclic algorithm must reject it; the triangle one must
	// reject acyclic queries.
	line := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	if _, err := Execute(AlgTriangle, Matching(line, 5), 4); err == nil {
		t.Fatal("triangle algorithm accepted an acyclic query")
	}
}

func TestLoadScalingFitsExponent(t *testing.T) {
	q := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	in, err := AGMWorstCase(q, 576) // 24²
	if err != nil {
		t.Fatal(err)
	}
	_, x, err := LoadScaling(AlgAcyclicOptimal, in, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	// ρ* = 2; allow generous tolerance for constants and rounding.
	if x < 1.2 || x > 3.5 {
		t.Fatalf("fitted exponent %.2f, expected ≈ 2", x)
	}
}

func TestLowerBoundSquare(t *testing.T) {
	q := MustParseQuery("square", "R1(A,B,C) R2(D,E,F) R3(A,D) R4(B,E) R5(C,F)")
	rep, err := LowerBound(q, 1000, 27, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PackingBound <= rep.CoverBound {
		t.Fatalf("bounds not separated: packing %.0f cover %.0f", rep.PackingBound, rep.CoverBound)
	}
	if float64(rep.MinLoad) < rep.CoverBound {
		t.Fatalf("min load %d below cover bound %.0f", rep.MinLoad, rep.CoverBound)
	}
}

func TestPackingHardRejects(t *testing.T) {
	q := MustParseQuery("tri", "R1(A,B) R2(B,C) R3(A,C)")
	if _, err := PackingHard(q, 100, 1); err == nil {
		t.Fatal("triangle should be rejected")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgAcyclicOptimal:      "acyclic-optimal",
		AlgAcyclicConservative: "acyclic-conservative",
		AlgHyperCube:           "hypercube",
		AlgSkewAware:           "hypercube-skew-aware",
		AlgYannakakis:          "yannakakis",
	}
	for alg, want := range names {
		if alg.String() != want {
			t.Errorf("%d: %s != %s", alg, alg.String(), want)
		}
	}
}

// TestScaleLine3Exponent is the large validation run: at N=4096 the
// optimal-run load must fit ρ* = 2 tightly over two decades of p.
func TestScaleLine3Exponent(t *testing.T) {
	if testing.Short() {
		t.Skip("large")
	}
	q := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	in, err := AGMWorstCase(q, 4096) // output 16.7M, counted not materialized
	if err != nil {
		t.Fatal(err)
	}
	_, x, err := LoadScaling(AlgAcyclicOptimal, in, []int{4, 16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if x < 1.7 || x > 2.3 {
		t.Fatalf("fitted exponent %.3f, want ≈ 2", x)
	}
}

func TestGeneratorWrappers(t *testing.T) {
	q := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	if in := Zipf(q, 100, 1000, 1.1, 3); in.N() != 100 {
		t.Fatal("Zipf wrapper broken")
	}
	if in := SquareHard(216, 1); in.Query.Name() != "square" {
		t.Fatal("SquareHard wrapper broken")
	}
	if in := Figure4Hard(3); in.Query.NumEdges() != 8 {
		t.Fatal("Figure4Hard wrapper broken")
	}
	sq := MustParseQuery("square", "R1(A,B,C) R2(D,E,F) R3(A,D) R4(B,E) R5(C,F)")
	in, err := PackingHard(sq, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() < 400 {
		t.Fatalf("PackingHard N = %d", in.N())
	}
}

func TestTraceRunWrapper(t *testing.T) {
	q := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	in := Uniform(q, 80, 20, 3)
	lines, err := TraceRun(AlgAcyclicOptimal, in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty trace")
	}
	if _, err := TraceRun(AlgHyperCube, in, 8); err == nil {
		t.Fatal("hypercube tracing should be unsupported")
	}
}

func TestEMReduceWrapper(t *testing.T) {
	q := MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	in, err := AGMWorstCase(q, 256)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := LoadScaling(AlgAcyclicOptimal, in, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EMReduce(profile, EMachine{M: 64, B: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.PStar < 1 || res.IOs <= 0 || res.ClosedForm <= 0 {
		t.Fatalf("degenerate reduction: %+v", res)
	}
}

func TestExecuteLoomisWhitney(t *testing.T) {
	q := MustParseQuery("lw4", "R1(B,C,D) R2(A,C,D) R3(A,B,D) R4(A,B,C)")
	in := Uniform(q, 150, 10, 4)
	rep, err := Execute(AlgLoomisWhitney, in, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Emitted != in.JoinSize() {
		t.Fatalf("emitted %d, want %d", rep.Emitted, in.JoinSize())
	}
	if AlgLoomisWhitney.String() != "lw-multiround" {
		t.Fatal("name wrong")
	}
}

func TestCatalogNonEmpty(t *testing.T) {
	if len(Catalog()) < 10 {
		t.Fatal("catalog too small")
	}
	for _, e := range Catalog() {
		if _, err := Analyze(e.Query); err != nil {
			t.Errorf("%s: %v", e.Query.Name(), err)
		}
	}
}

// TestSkewAwareStrataSumSaturates: the skew-aware run adds its strata's
// counts saturating, so a count is exact or math.MaxInt64. On star-5
// the hub stratum (centre (0,…,0), each arm (0, y) for y = 1..10⁴) has
// 10²⁰ results, past MaxInt64, and the all-(−7) rows add one light
// result; a wrapping sum reads math.MinInt64. Only skew-aware runs here:
// Yannakakis would materialise the 10²⁰ rows.
func TestSkewAwareStrataSumSaturates(t *testing.T) {
	q := hypergraph.StarJoin(5)
	in := relation.NewInstance(q)
	for e := range q.NumEdges() {
		r := in.Rel(e)
		light := make(relation.Tuple, r.Schema().Len())
		for i := range light {
			light[i] = -7
		}
		r.Add(light)
		if e == 0 {
			r.Add(make(relation.Tuple, r.Schema().Len()))
			continue
		}
		for y := range relation.Value(10_000) {
			r.Add(relation.Tuple{0, y + 1})
		}
	}
	rep, err := Execute(AlgSkewAware, in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Emitted != math.MaxInt64 {
		t.Fatalf("skew-aware emitted %d, want math.MaxInt64", rep.Emitted)
	}
}
