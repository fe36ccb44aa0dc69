package mpc

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// The scenario harness: every scenario is executed on one worker and on
// several worker-pool sizes, and every observable — output tuples
// (order included), Stats, the trace span tree with every exchange's
// load — must be byte-identical.

// capture is everything observable about one run.
type capture struct {
	stats Stats
	root  *trace.Span
	outs  []*relation.Relation
}

// runScenario executes scenario on a fresh p-server cluster with the
// given worker count, recording traces. The scenario registers output
// fragments through keep.
func runScenario(p, workers int, scenario func(g *Group, keep func(rs ...*relation.Relation))) capture {
	col := trace.NewCollector()
	var cap capture
	// withForcedWorkers: equivalence runs must exercise the concurrent
	// engine even on single-CPU shards, where WithWorkers would fall
	// back to sequential (and flag Stats.SeqFallback).
	c := NewCluster(p, withForcedWorkers(workers), WithRecorder(col))
	scenario(c.Root(), func(rs ...*relation.Relation) { cap.outs = append(cap.outs, rs...) })
	cap.stats = c.Stats()
	cap.root = col.Root()
	return cap
}

// assertSameCapture fails unless got is byte-identical to want.
func assertSameCapture(t *testing.T, label string, want, got capture) {
	t.Helper()
	if want.stats != got.stats {
		t.Errorf("%s: stats differ: seq %+v, par %+v", label, want.stats, got.stats)
	}
	if !reflect.DeepEqual(want.root, got.root) {
		t.Errorf("%s: trace span trees differ", label)
	}
	if len(want.outs) != len(got.outs) {
		t.Fatalf("%s: %d output fragments vs %d", label, len(want.outs), len(got.outs))
	}
	for i := range want.outs {
		a, b := want.outs[i], got.outs[i]
		if !a.Schema().Equal(b.Schema()) {
			t.Fatalf("%s: fragment %d schema %v vs %v", label, i, a.Schema(), b.Schema())
		}
		if a.Len() != b.Len() {
			t.Fatalf("%s: fragment %d has %d tuples vs %d", label, i, a.Len(), b.Len())
		}
		for j := range a.Tuples() {
			at, bt := a.Tuples()[j], b.Tuples()[j]
			for k := range at {
				if at[k] != bt[k] {
					t.Fatalf("%s: fragment %d tuple %d differs: %v vs %v", label, i, j, at, bt)
				}
			}
		}
	}
}

// big builds a relation large enough to cross the engine's fan-out
// threshold, with values spread over several residues.
func big(schema relation.Schema, n int) *relation.Relation {
	r := relation.New(schema)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, schema.Len())
		for j := range t {
			t[j] = int64((i*13 + j*7) % 97)
		}
		t[0] = int64(i % 31)
		r.Add(t)
	}
	return r
}

var engineScenarios = []struct {
	name string
	run  func(g *Group, keep func(rs ...*relation.Relation))
}{
	{"scatter", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0, 1), 4000))
		keep(fragRels(d)...)
	}},
	{"hash-partition", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0, 1), 4000))
		keep(fragRels(g.HashPartition(d, []int{1}))...)
	}},
	{"route-replicated", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0, 1), 4000))
		size := g.Size()
		out := g.Route(d, func(src int, t relation.Tuple) []int {
			if t[0]%3 == 0 {
				return []int{int(t[1]) % size, (int(t[1]) + 1 + src) % size}
			}
			return []int{int(t[0]) % size}
		})
		keep(fragRels(out)...)
	}},
	{"send-to", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0, 1), 4000))
		keep(fragRels(resize(g, d, 3))...)
		keep(fragRels(resize(g, d, g.Size()+2))...)
	}},
	{"broadcast-gather", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0), 2000))
		keep(fragRels(g.Broadcast(d))...)
		keep(g.Gather(d))
	}},
	{"local", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0, 1), 4000))
		out := Local(g, d, relation.SelectEqStep(d.Schema, 0, 5))
		keep(fragRels(out)...)
	}},
	{"distribute", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0, 1), 4000))
		// Round-robin: evens to branch 0, odds to branch 1.
		parts := g.DistributeSpread(d, []int{2, 3}, false, func(t relation.Tuple) int { return int(t[0] % 2) })
		for i := range parts {
			keep(fragRels(&parts[i])...)
		}
	}},
	{"distribute-spread", func(g *Group, keep func(...*relation.Relation)) {
		d := g.Scatter(big(relation.NewSchema(0, 1), 4000))
		pick := func(t relation.Tuple) int {
			switch {
			case t[0]%7 == 0:
				return -1 // dropped
			case t[0]%5 == 0:
				return 1
			default:
				return 0
			}
		}
		for _, broadcast := range []bool{false, true} {
			keep(flatten(g.DistributeSpread(d, []int{2, 3}, broadcast, pick))...)
		}
	}},
	{"parallel-nested", func(g *Group, keep func(...*relation.Relation)) {
		outs := make([]*DistRelation, 3)
		inner := make([]*DistRelation, 2)
		g.Span("outer", func() {
			g.Parallel([]Branch{
				{Servers: 3, Run: func(sub *Group) (int64, error) {
					d := sub.Scatter(big(relation.NewSchema(0, 1), 3000))
					sub.Span("branch-phase", func() {
						outs[0] = sub.HashPartition(d, []int{0})
					})
					return 0, nil
				}},
				{Servers: 2, Run: func(sub *Group) (int64, error) {
					sub.Parallel([]Branch{
						{Servers: 2, Run: func(s2 *Group) (int64, error) {
							d := s2.Scatter(big(relation.NewSchema(0), 1500))
							inner[0] = resize(s2, d, 2)
							return 0, nil
						}},
						{Servers: 1, Run: func(s2 *Group) (int64, error) {
							d := s2.Scatter(big(relation.NewSchema(0), 1200))
							inner[1] = s2.Broadcast(d)
							return 0, nil
						}},
					})
					outs[1] = sub.Scatter(big(relation.NewSchema(0, 1), 100))
					return 0, nil
				}},
				{Servers: 4, Run: func(sub *Group) (int64, error) {
					sub.ChargeControl([]int{1, 1, 1, 1})
					sub.Parallel([]Branch{{Servers: 2, Run: func(s2 *Group) (int64, error) {
						d := s2.Scatter(big(relation.NewSchema(0, 1), 2000))
						outs[2] = s2.HashPartition(d, []int{1})
						return 0, nil
					}}})
					return 0, nil
				}},
			})
		})
		for _, d := range append(append([]*DistRelation{}, outs...), inner...) {
			keep(fragRels(d)...)
		}
	}},
}

// The reference exchanges: the per-tuple loops the package ran before
// the kernel (Add into NewDist fragments, recv[dst]++), kept here as the
// oracle's independent side. They share no code with exchange.go — with
// one kernel under every worker count, comparing worker counts proves
// chunking invariance, not correctness.

func naiveHashPartition(d *DistRelation, pos []int, p int) ([]*relation.Relation, []int) {
	out := empties(d.Schema, p)
	recv := make([]int, p)
	for _, f := range fragRels(d) {
		for i := 0; i < f.Len(); i++ {
			t := f.Row(i)
			dst := legacyHashDest(t, pos, p)
			out[dst].Add(t)
			recv[dst]++
		}
	}
	return out, recv
}

func naiveRoute(d *DistRelation, p int, route func(src int, t relation.Tuple) []int) ([]*relation.Relation, []int) {
	out := empties(d.Schema, p)
	recv := make([]int, p)
	for src, f := range fragRels(d) {
		for i := 0; i < f.Len(); i++ {
			t := f.Row(i)
			for _, dst := range route(src, t) {
				out[dst].Add(t)
				recv[dst]++
			}
		}
	}
	return out, recv
}

// empties returns n empty relations over schema.
func empties(schema relation.Schema, n int) []*relation.Relation {
	out := make([]*relation.Relation, n)
	for i := range out {
		out[i] = relation.New(schema)
	}
	return out
}

// fragRels copies d's fragments out as relations, fragment i at index i.
func fragRels(d *DistRelation) []*relation.Relation {
	out := make([]*relation.Relation, d.Servers())
	for i := range out {
		out[i] = d.Frag(i).Clone()
	}
	return out
}

// naiveBranches allocates the per-branch outputs of DistributeSpread as
// one flat fragment list, with each branch's first slot.
func naiveBranches(schema relation.Schema, sizes []int, p int) (frags []*relation.Relation, offset, recv []int) {
	total := 0
	for _, k := range sizes {
		offset = append(offset, total)
		total += k
	}
	return empties(schema, total), offset, make([]int, max(total, p))
}

func naiveDistributeSpread(d *DistRelation, sizes []int, p int, broadcast bool, pick func(relation.Tuple) int) ([]*relation.Relation, []int) {
	frags, offset, recv := naiveBranches(d.Schema, sizes, p)
	rr := make([]int, len(sizes))
	for _, f := range fragRels(d) {
		for i := 0; i < f.Len(); i++ {
			t := f.Row(i)
			b := pick(t)
			if b < 0 {
				continue
			}
			if broadcast {
				for srv := 0; srv < sizes[b]; srv++ {
					frags[offset[b]+srv].Add(t)
					recv[offset[b]+srv]++
				}
				continue
			}
			srv := rr[b] % sizes[b]
			rr[b]++
			frags[offset[b]+srv].Add(t)
			recv[offset[b]+srv]++
		}
	}
	return frags, recv
}

// naiveSpread delivers flattened tuple i to server i mod k of every
// k-server branch.
func naiveSpread(d *DistRelation, sizes []int, p int) ([]*relation.Relation, []int) {
	frags, offset, recv := naiveBranches(d.Schema, sizes, p)
	i := 0
	for _, f := range fragRels(d) {
		for j := 0; j < f.Len(); j++ {
			for b, k := range sizes {
				frags[offset[b]+i%k].Add(f.Row(j))
				recv[offset[b]+i%k]++
			}
			i++
		}
	}
	return frags, recv
}

// exchangeCase is one routed exchange as the production call (branch
// outputs flattened) and as its naive reference.
type exchangeCase struct {
	name string
	run  func(g *Group, d *DistRelation) []*relation.Relation
	ref  func(d *DistRelation, p int) ([]*relation.Relation, []int)
}

// col reads column j of t, falling back on the source index so the
// routing functions below also split arity-0 inputs.
func col(src int, t relation.Tuple, j int) int {
	if j < len(t) {
		return int(t[j])
	}
	return src + j
}

func flatten(parts []DistRelation) []*relation.Relation {
	var out []*relation.Relation
	for i := range parts {
		out = append(out, fragRels(&parts[i])...)
	}
	return out
}

// exchangeCases returns the exchanges over a group of p servers.
// Routes replicate and drop; RouteFan sends every tuple to its base and
// the base plus p/2 (twice to server 0 when p is 1), the naive Route of
// that list; DistributeSpread drops and sends to both
// branches, round-robin in one case and broadcast in the other, so any
// cut of the input has rotation state on either side of it. Spread's
// branches have one server, three, and p+2 (more than some inputs have
// tuples).
func exchangeCases(p int) []exchangeCase {
	route := func(src int, t relation.Tuple) []int {
		switch a, b := col(src, t, 0), col(src, t, 1); {
		case a%5 == 4:
			return nil
		case a%3 == 0:
			return []int{b % p, (b + 1 + src) % p}
		default:
			return []int{a % p}
		}
	}
	fan := []int{0, p / 2}
	base := func(src int, t relation.Tuple) int { return (col(src, t, 0) + src) % (p - p/2) }
	fanned := func(src int, t relation.Tuple) []int {
		b := base(src, t)
		return []int{b + fan[0], b + fan[1]}
	}
	sizes := []int{2, 3}
	spreadSizes := []int{1, 3, p + 2}
	pick := func(t relation.Tuple) int {
		if a := col(0, t, 0); a%7 != 6 {
			return a % 2
		}
		return -1
	}
	distribute := func(name string, broadcast bool) exchangeCase {
		return exchangeCase{name,
			func(g *Group, d *DistRelation) []*relation.Relation {
				return flatten(g.DistributeSpread(d, sizes, broadcast, pick))
			},
			func(d *DistRelation, p int) ([]*relation.Relation, []int) {
				return naiveDistributeSpread(d, sizes, p, broadcast, pick)
			}}
	}
	return []exchangeCase{
		{"hash-partition",
			func(g *Group, d *DistRelation) []*relation.Relation {
				return fragRels(g.HashPartition(d, d.Schema.Attrs()[:min(1, d.Schema.Len())]))
			},
			func(d *DistRelation, p int) ([]*relation.Relation, []int) {
				return naiveHashPartition(d, []int{0}[:min(1, d.Schema.Len())], p)
			}},
		{"route",
			func(g *Group, d *DistRelation) []*relation.Relation { return fragRels(g.Route(d, route)) },
			func(d *DistRelation, p int) ([]*relation.Relation, []int) { return naiveRoute(d, p, route) }},
		{"route-fan",
			func(g *Group, d *DistRelation) []*relation.Relation { return fragRels(g.RouteFan(d, base, fan)) },
			func(d *DistRelation, p int) ([]*relation.Relation, []int) { return naiveRoute(d, p, fanned) }},
		distribute("distribute-spread", false),
		distribute("distribute-spread/broadcast", true),
		{"spread",
			func(g *Group, d *DistRelation) []*relation.Relation {
				return flatten(g.Spread(d, spreadSizes))
			},
			func(d *DistRelation, p int) ([]*relation.Relation, []int) {
				return naiveSpread(d, spreadSizes, p)
			}},
	}
}

// recvRecorder keeps the recv vector of every charged exchange.
type recvRecorder struct{ recvs [][]int }

func (*recvRecorder) BeginSpan(string, trace.SpanKind, int) {}
func (*recvRecorder) EndSpan()                              {}
func (r *recvRecorder) Exchange(_ trace.Op, recv []int) {
	r.recvs = append(r.recvs, append([]int(nil), recv...))
}

// checkAgainstNaive runs ec on a fresh p-server cluster over d and
// fails unless fragments (content and order), the charged recv vector
// and the Stats equal the naive reference's.
func checkAgainstNaive(t testing.TB, label string, ec exchangeCase, d *DistRelation, p int, opts ...Option) {
	t.Helper()
	rec := &recvRecorder{}
	c := NewCluster(p, append([]Option{WithRecorder(rec)}, opts...)...)
	got := ec.run(c.Root(), d)
	want, recv := ec.ref(d, p)

	if len(rec.recvs) != 1 || !reflect.DeepEqual(rec.recvs[0], recv) {
		t.Fatalf("%s: charged %v, reference recv %v", label, rec.recvs, recv)
	}
	wantStats := Stats{Rounds: 1, ServersUsed: p}
	for _, r := range recv {
		wantStats.MaxLoad = max(wantStats.MaxLoad, r)
		wantStats.TotalUnits += int64(r)
	}
	if c.Stats() != wantStats {
		t.Fatalf("%s: stats %+v, reference %+v", label, c.Stats(), wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d output fragments, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Schema().Equal(want[i].Schema()) || got[i].Len() != want[i].Len() {
			t.Fatalf("%s: fragment %d is %v×%d, reference %v×%d", label, i,
				got[i].Schema(), got[i].Len(), want[i].Schema(), want[i].Len())
		}
		if !slices.Equal(got[i].Data(), want[i].Data()) {
			t.Fatalf("%s: fragment %d rows differ from the reference (content or order)", label, i)
		}
	}
}

// blocks lays r out over len(sizes) fragments by contiguous runs of the
// given sizes (which must sum to r.Len()), without going through Scatter.
func blocks(r *relation.Relation, sizes ...int) *DistRelation {
	return &DistRelation{Frags: relation.NewFragsCounts(r.Schema(), slices.Clone(r.Data()), sizes)}
}

func TestEngineEquivalence(t *testing.T) {
	const p = 5
	nullary := relation.New(relation.NewSchema())
	for i := 0; i < 3000; i++ {
		nullary.Add(relation.Tuple{})
	}
	wide := big(relation.NewSchema(0, 1), 4000)
	inputs := []struct {
		name string
		d    *DistRelation
	}{
		{"big", blocks(wide, 700, 0, 1, 299, 3000)},
		{"arity-0", blocks(nullary, 1000, 500, 0, 1500, 0)},
		{"empty", blocks(relation.New(relation.NewSchema(0, 1)), 0, 0, 0, 0, 0)},
		{"fewer-frags", blocks(wide, 1500, 1500, 1000)},
		{"more-frags", blocks(wide, 500, 500, 500, 500, 500, 500, 500, 500)},
	}
	for _, in := range inputs {
		for _, ec := range exchangeCases(p) {
			for _, w := range []int{1, 2, 4, 7} {
				label := in.name + "/" + ec.name + "/workers=" + itoa(w)
				checkAgainstNaive(t, label, ec, in.d, p, withForcedWorkers(w))
			}
		}
	}
}

// TestEngineScenariosAcrossWorkers runs whole scenarios — the free and
// per-server steps, nested Parallel blocks and spans, which
// the naive references above do not model — on one worker and on
// several: every observable must be byte-identical.
func TestEngineScenariosAcrossWorkers(t *testing.T) {
	for _, sc := range engineScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := runScenario(5, 1, sc.run)
			for _, w := range []int{2, 3, 8} {
				got := runScenario(5, w, sc.run)
				assertSameCapture(t, sc.name+"/workers="+itoa(w), want, got)
			}
		})
	}
}

// TestEngineEquivalenceRepeatable re-runs one parallel configuration to
// catch scheduling-dependent output (the equivalence above would admit a
// deterministic-but-different parallel engine run-to-run).
func TestEngineEquivalenceRepeatable(t *testing.T) {
	sc := engineScenarios[len(engineScenarios)-1] // parallel-nested
	a := runScenario(5, 4, sc.run)
	b := runScenario(5, 4, sc.run)
	assertSameCapture(t, "repeat", a, b)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestFlatChunksPartitionFlattenedOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		g := NewCluster(3, withForcedWorkers(workers)).Root()
		for _, n := range []int{0, 1, 255, parThreshold - 1, parThreshold, 5000, 100000} {
			x := g.scratch(n)
			next := 0
			for ci := range x.chunks() {
				lo, hi := x.cut[ci], x.cut[ci+1]
				if lo != next || hi <= lo {
					t.Fatalf("n %d workers %d: chunk %d is rows %d to %d, want one starting at row %d", n, workers, ci, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n %d workers %d: chunks cover %d of %d rows", n, workers, next, n)
			}
			if k := x.chunks(); n > 0 && (k < 1 || k > max(1, workers*chunkFactor) || k > 1 && !g.parallel(n)) {
				t.Fatalf("n %d workers %d: %d chunks", n, workers, k)
			}
			putScratch(x)
		}
	}
}

func TestForkPanicPropagatesLowestIndex(t *testing.T) {
	c := NewCluster(4, withForcedWorkers(4))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fork swallowed the panic")
		}
		if s, ok := r.(string); !ok || s != "boom-3" {
			t.Fatalf("recovered %v, want boom-3 (lowest panicking index)", r)
		}
	}()
	c.fork(8, func(i int) {
		if i == 3 || i == 6 {
			panic("boom-" + itoa(i))
		}
	})
}

func TestRoutePanicUnderParallelEngine(t *testing.T) {
	c := NewCluster(4, withForcedWorkers(4))
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0), 2000))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bad destination did not panic")
		}
		if !strings.Contains(r.(string), "route destination") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	g.Route(d, func(int, relation.Tuple) []int { return []int{99} })
}

func TestNestedForkDoesNotDeadlock(t *testing.T) {
	c := NewCluster(4, withForcedWorkers(2))
	sums := make([]int64, 4)
	c.fork(4, func(i int) {
		inner := make([]int64, 8)
		c.fork(8, func(j int) { inner[j] = int64(i*8 + j) })
		for _, v := range inner {
			sums[i] += v
		}
	})
	var total int64
	for _, s := range sums {
		total += s
	}
	if total != 31*32/2 {
		t.Fatalf("total %d, want %d", total, 31*32/2)
	}
}

func TestWithWorkersOption(t *testing.T) {
	if got := NewCluster(2).workers; got != 1 {
		t.Fatalf("default workers = %d, want 1", got)
	}
	if c := NewCluster(2); c.Stats().SeqFallback {
		t.Fatal("default cluster reports SeqFallback")
	}
	multiCPU := runtime.GOMAXPROCS(0) > 1
	c := NewCluster(2, WithWorkers(6))
	if multiCPU {
		if got := c.workers; got != 6 {
			t.Fatalf("workers = %d, want 6", got)
		}
		if c.Stats().SeqFallback {
			t.Fatal("multi-CPU cluster reports SeqFallback")
		}
	} else {
		// Single schedulable CPU: the pool cannot run concurrently, so
		// the cluster must fall back to sequential and say so.
		if got := c.workers; got != 1 {
			t.Fatalf("workers = %d under GOMAXPROCS=1, want 1 (fallback)", got)
		}
		if !c.Stats().SeqFallback {
			t.Fatal("GOMAXPROCS=1 fallback not recorded in Stats.SeqFallback")
		}
	}
	if got := NewCluster(2, WithWorkers(0)).workers; got < 1 {
		t.Fatalf("auto workers = %d, want >= 1", got)
	}
	if got := NewCluster(2, withForcedWorkers(6)).workers; got != 6 {
		t.Fatalf("forced workers = %d, want 6", got)
	}
}

// TestWithWorkersFallbackUnderSingleCPU pins GOMAXPROCS to 1 so the
// fallback path is exercised regardless of the host's CPU count, and
// verifies results are unchanged (the sequential engine runs).
func TestWithWorkersFallbackUnderSingleCPU(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	c := NewCluster(3, WithWorkers(4))
	if got := c.workers; got != 1 {
		t.Fatalf("workers = %d, want 1", got)
	}
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0, 1), 2000))
	out := g.HashPartition(d, []int{0})
	if out.Len() != 2000 {
		t.Fatalf("partitioned %d tuples, want 2000", out.Len())
	}
	if !c.Stats().SeqFallback {
		t.Fatal("fallback not recorded")
	}

	ref := NewCluster(3)
	rg := ref.Root()
	rout := rg.HashPartition(rg.Scatter(big(relation.NewSchema(0, 1), 2000)), []int{0})
	rs, gs := ref.Stats(), c.Stats()
	rs.SeqFallback, gs.SeqFallback = false, false
	if rs != gs {
		t.Fatalf("fallback stats %+v, want %+v", gs, rs)
	}
	for i := range rout.Servers() {
		if rout.FragLen(i) != out.FragLen(i) {
			t.Fatalf("fragment %d: %d tuples, want %d", i, out.FragLen(i), rout.FragLen(i))
		}
	}
}

// TestExchangeOutputsPooledAndTracked: every non-empty exchange output
// is one pooled blob that Release hands back (recycled or, when too
// small to pool, counted as a discard) — on one worker and on several.
func TestExchangeOutputsPooledAndTracked(t *testing.T) {
	for _, w := range []int{1, 4} {
		c := NewCluster(4, withForcedWorkers(w))
		g := c.Root()
		before := relation.PoolStats()
		d := g.Scatter(big(relation.NewSchema(0, 1), 3000))
		g.HashPartition(d, []int{1})
		g.HashPartition(g.Scatter(relation.New(relation.NewSchema(0))), []int{0}) // two empty exchanges: no blob
		c.Release()
		after := relation.PoolStats()
		if got := (after.Puts + after.Discards) - (before.Puts + before.Discards); got != 2 {
			t.Errorf("workers=%d: Release returned %d blobs, want 2 (one per non-empty exchange)", w, got)
		}
	}
}

// TestSmallStepsRunInline: Broadcast and Local decide to fan out by the
// same rule as the exchanges — never below parThreshold tuples, however
// many servers the group has — and Gather never forks.
func TestSmallStepsRunInline(t *testing.T) {
	c := NewCluster(8, withForcedWorkers(4))
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0, 1), parThreshold/4)) // × 8 servers ≥ parThreshold
	forks := mEngineForks.Value()
	g.Broadcast(d)
	g.Gather(d)
	Local(g, d, relation.ProjectStep(d.Schema, d.Schema))
	if got := mEngineForks.Value() - forks; got != 0 {
		t.Fatalf("%d fan-outs over %d tuples, want none", got, d.Len())
	}
}

// TestScratchRoundTripAllocatesNothing: the pool holds the scratch's
// pointer, so a put boxes nothing.
func TestScratchRoundTripAllocatesNothing(t *testing.T) {
	putScratch(getScratch())
	if n := testing.AllocsPerRun(1000, func() { putScratch(getScratch()) }); n != 0 {
		t.Fatalf("scratch get+put allocates %v objects per round trip", n)
	}
}

// TestSpanTimerAllocatesNothing: a phase span times itself without
// allocating, and still records when its body panics.
func TestSpanTimerAllocatesNothing(t *testing.T) {
	g := NewCluster(2).Root()
	body := func() {}
	g.Span("span-timer-test", body)
	if n := testing.AllocsPerRun(100, func() { g.Span("span-timer-test", body) }); n != 0 {
		t.Fatalf("Span allocates %v objects per call", n)
	}
	h := mPhaseSeconds.With("span-timer-test")
	before := h.Count()
	func() {
		defer func() { _ = recover() }()
		g.Span("span-timer-test", func() { panic("boom") })
	}()
	if h.Count() != before+1 {
		t.Fatalf("a panicking span recorded %d observations, want 1", h.Count()-before)
	}
}

// withForcedWorkers sets the pool size bypassing the GOMAXPROCS
// fallback. Test seam: the determinism and race suites must exercise
// the concurrent code paths even on single-CPU CI shards.
func withForcedWorkers(n int) Option {
	return func(c *Cluster) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
		c.fellBack = false
	}
}

// withChunker replaces the scratch's cut of every exchange input: cut
// returns the chunk bounds of n rows, 0 first and n last. Test seam: the
// chunking-invariance fuzz target cuts where it likes, on inputs far
// below parThreshold.
func withChunker(cut func(n int) []int) Option {
	return func(c *Cluster) { c.chunker = cut }
}
