package bench

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"coverpack"
	"coverpack/internal/fractional"
	"coverpack/internal/hashtab"
	"coverpack/internal/hypergraph"
	"coverpack/internal/lp"
	"coverpack/internal/mpc"
	"coverpack/internal/plan"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// The layer kernels: direct, clocked calls into each layer's public
// functions on the workload's own data — the first case's relations
// for the data layers, the workload's distinct queries for the compile
// layers. A kernel number says what the layer costs alone; the passes
// say how much of it a run uses.

// timed returns the median wall time of fn over reps runs; prep, when
// non-nil, runs before each rep outside the clock (fresh inputs, so no
// rep is served by an index or plan the previous one left behind).
func timed(reps int, prep, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	slices.Sort(ds)
	return ds[reps/2]
}

func nsPer(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hotLoop is how often a nanosecond-scale call is repeated inside one
// clocked rep.
const hotLoop = 1000

// maxKernelJoin caps the output of the pair the join kernels run on:
// on an AGM worst-case instance two whole relations join to N² rows.
const maxKernelJoin = 1 << 21

// joinPair picks the first two relations of the instance that share an
// attribute (the first relation twice when none do), cut to prefixes
// whose join stays under maxKernelJoin rows (divided by the run's
// scale).
func joinPair(in *coverpack.Instance, scale int) (r, s *relation.Relation) {
	r, s = in.Relations[0], in.Relations[0]
pick:
	for i, a := range in.Relations {
		for _, b := range in.Relations[i+1:] {
			if len(a.Schema().Common(b.Schema())) > 0 {
				r, s = a, b
				break pick
			}
		}
	}
	for relation.JoinSizeOf([]*relation.Relation{r, s}) > int64(maxKernelJoin/scale) {
		r = relation.FromTuples(r.Schema(), r.Tuples()[:(r.Len()+1)/2])
		s = relation.FromTuples(s.Schema(), s.Tuples()[:(s.Len()+1)/2])
	}
	return r, s
}

// shuffled copies r with its rows in a seed-fixed random order, so the
// sort kernels cannot take the already-sorted early-out.
func shuffled(r *relation.Relation) *relation.Relation {
	rows := r.Tuples()
	perm := rand.New(rand.NewPCG(1, 2)).Perm(len(rows))
	out := relation.New(r.Schema())
	out.Grow(len(rows))
	for _, i := range perm {
		out.Add(rows[i])
	}
	return out
}

// Kernels runs every layer kernel for the session's workload and
// stores the results in m.
func Kernels(s *Session, cfg Config, m map[string]float64) error {
	c := &s.Cases[0]
	reps := cfg.KernelReps
	r, sr := joinPair(c.In, cfg.Scale)
	mpcKernels(c, r, reps, m)
	relationKernels(c, r, sr, reps, m)
	hashtabKernels(r, sr, reps, m)
	primitivesKernels(c, r, sr, reps, m)
	return compileKernels(distinctQueries(s.Cases, cfg.Scale), reps, m)
}

func mpcKernels(c *Case, r *relation.Relation, reps int, m map[string]float64) {
	cl := mpc.NewCluster(c.P)
	defer cl.Release()
	g := cl.Root()
	n := r.Len()
	key := r.Schema().Attrs()[:1]
	var d *mpc.DistRelation
	scatter := func() { d = g.Scatter(r) }
	m["mpc.scatter_ns_per_tuple"] = nsPer(timed(reps, nil, scatter), n)
	// A fresh scatter has fresh content versions, so the first
	// HashPartition of it misses the plan cache and the second replays.
	m["mpc.hash_partition_ns_per_tuple"] = nsPer(timed(reps, scatter, func() { g.HashPartition(d, key) }), n)
	m["mpc.hash_partition_replay_ns_per_tuple"] = nsPer(timed(reps,
		func() { scatter(); g.HashPartition(d, key) },
		func() { g.HashPartition(d, key) }), n)
	m["mpc.gather_ns_per_tuple"] = nsPer(timed(reps, nil, func() { g.Gather(d) }), n)
	p := g.Size()
	two := func(src int, _ relation.Tuple) []int { return []int{src, (src + 1) % p} }
	m["mpc.route_ns_per_unit"] = nsPer(timed(reps, nil, func() { g.Route(d, two) }), 2*n)
	// Broadcast is for small relations: replicate at most 1024 rows.
	small := r
	if n > 1024 {
		small = relation.FromTuples(r.Schema(), r.Tuples()[:1024])
	}
	ds := g.Scatter(small)
	m["mpc.broadcast_ns_per_unit"] = nsPer(timed(reps, nil, func() { g.Broadcast(ds) }), small.Len()*p)
	m["mpc.new_cluster_us"] = us(timed(reps, nil, func() {
		for i := 0; i < hotLoop; i++ {
			mpc.NewCluster(c.P).Release()
		}
	})) / hotLoop
}

func relationKernels(c *Case, r, s *relation.Relation, reps int, m map[string]float64) {
	var a, b *relation.Relation
	fresh := func() { a, b = r.Clone(), s.Clone() }
	out := r.Join(s).Len()
	m["relation.join_ns_per_out"] = nsPer(timed(reps, fresh, func() { a.Join(b) }), out)
	m["relation.stream_join_ns_per_out"] = nsPer(timed(reps, fresh, func() {
		relation.Materialize(relation.StreamJoin(a.Iter(), b))
	}), out)
	m["relation.merge_join_ns_per_out"] = nsPer(timed(reps, fresh, func() { a.MergeJoin(b) }), out)
	m["relation.semijoin_ns_per_tuple"] = nsPer(timed(reps, fresh, func() { a.SemiJoin(b) }), r.Len())
	m["relation.dedup_ns_per_tuple"] = nsPer(timed(reps, fresh, func() { a.Dedup() }), r.Len())
	pos := []int{r.Schema().Len() - 1}
	unsorted := func() { a = shuffled(r) }
	m["relation.sort_by_ns_per_tuple"] = nsPer(timed(reps, unsorted, func() { a.SortBy(pos) }), r.Len())

	cl := mpc.NewCluster(c.P, mpc.WithWorkers(ParWorkers()))
	defer cl.Release()
	g := cl.Root()
	m["relation.join_par_ns_per_out"] = nsPer(timed(reps, fresh, func() { a.JoinPar(b, g) }), out)
	m["relation.sort_by_par_ns_per_tuple"] = nsPer(timed(reps, unsorted, func() { a.SortByPar(pos, g) }), r.Len())
	m["relation.join_size_ms"] = ms(timed(reps, nil, func() { c.In.JoinSize() }))
}

func hashtabKernels(r, s *relation.Relation, reps int, m map[string]float64) {
	pos := r.Schema().Positions(r.Schema().Common(s.Schema()))
	n := r.Len()
	var t *hashtab.Table
	m["hashtab.insert_ns"] = nsPer(timed(reps,
		func() {
			if t != nil {
				t.Release()
			}
			t = hashtab.New(len(pos), n)
		},
		func() {
			for i := 0; i < n; i++ {
				t.Insert(r.Row(i), pos)
			}
		}), n)
	m["hashtab.find_ns"] = nsPer(timed(reps, nil, func() {
		for i := 0; i < n; i++ {
			t.Find(r.Row(i), pos)
		}
	}), n)
	t.Release()
}

func primitivesKernels(c *Case, r, s *relation.Relation, reps int, m map[string]float64) {
	cl := mpc.NewCluster(c.P)
	defer cl.Release()
	g := cl.Root()
	q := c.In.Query
	attr := r.Schema().Attrs()[0]
	cnt := q.NumAttrs() // a fresh attribute id, as the algorithms pick theirs
	ones := relation.New(relation.NewSchema(attr, cnt))
	ones.Grow(r.Len())
	for i := 0; i < r.Len(); i++ {
		ones.AddValues(r.Row(i)[0], 1)
	}
	var dr, dsr, dones *mpc.DistRelation
	fresh := func() { dr, dsr, dones = g.Scatter(r), g.Scatter(s), g.Scatter(ones) }
	m["primitives.reduce_by_key_ms"] = ms(timed(reps, fresh, func() { primitives.ReduceByKey(g, dones, []int{attr}, cnt) }))
	m["primitives.semijoin_ms"] = ms(timed(reps, fresh, func() { primitives.SemiJoin(g, dr, dsr) }))
	m["primitives.sort_ms"] = ms(timed(reps, fresh, func() { primitives.Sort(g, dr, []int{attr}) }))
	m["primitives.degrees_ms"] = ms(timed(reps, fresh, func() { primitives.Degrees(g, dr, attr, cnt) }))
	m["primitives.join_count_ms"] = 0
	if tree, ok := hypergraph.GYO(q); ok && len(tree.Roots()) == 1 {
		children := make([][]int, q.NumEdges())
		for e := range children {
			children[e] = tree.Children(e)
		}
		var rels []*mpc.DistRelation
		scatterAll := func() {
			rels = rels[:0]
			for _, rel := range c.In.Relations {
				rels = append(rels, g.Scatter(rel))
			}
		}
		m["primitives.join_count_ms"] = ms(timed(reps, scatterAll, func() {
			primitives.JoinCount(g, rels, children, tree.Roots()[0], cnt)
		}))
	}
}

// distinctQueries lists the queries of the cases once each, leaving
// out those a scaled-down run does not compile.
func distinctQueries(cases []Case, scale int) []*hypergraph.Query {
	var qs []*hypergraph.Query
	seen := map[string]bool{}
	for _, c := range cases {
		if key := c.In.Query.String(); !seen[key] && compilesFast(c.In.Query, scale) {
			seen[key] = true
			qs = append(qs, c.In.Query)
		}
	}
	return qs
}

// edgeCoverLP is the ρ* program of q, built on lp's public constructor
// the way fractional builds it.
func edgeCoverLP(q *hypergraph.Query) *lp.Problem {
	n := q.NumEdges()
	p := lp.NewProblem(n, false)
	for e := 0; e < n; e++ {
		p.SetObjective(e, lp.Int(1))
	}
	for _, a := range q.AllVars().Attrs() {
		coeffs := make([]*big.Rat, n)
		for e := range coeffs {
			coeffs[e] = lp.Int(0)
			if q.EdgeVars(e).Contains(a) {
				coeffs[e] = lp.Int(1)
			}
		}
		p.AddConstraint(coeffs, lp.GE, lp.Int(1))
	}
	return p
}

// renamed spells q with fresh relation, attribute and query names: an
// isomorphic query the caches have never seen as a fingerprint.
func renamed(q *hypergraph.Query, name string) *hypergraph.Query {
	var parts []string
	for e := 0; e < q.NumEdges(); e++ {
		var names []string
		for _, a := range q.EdgeVars(e).Attrs() {
			names = append(names, fmt.Sprintf("Z%d", a))
		}
		parts = append(parts, fmt.Sprintf("E%d(%s)", e, strings.Join(names, ",")))
	}
	return hypergraph.MustParse(name, strings.Join(parts, " "))
}

// compileKernels clocks the compile layers over the workload's
// distinct queries; every value is the mean per query.
func compileKernels(qs []*hypergraph.Query, reps int, m map[string]float64) error {
	resetAll := func() {
		coverpack.ResetPlanCompileCache() // also drops the lp memo
		coverpack.ResetAnalyzeCache()
	}
	each := func(fn func(q *hypergraph.Query)) func() {
		return func() {
			for _, q := range qs {
				fn(q)
			}
		}
	}
	n := float64(len(qs))
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bench: compile kernel: %w", err)
		}
	}
	lps := make([]*lp.Problem, len(qs))
	for i, q := range qs {
		lps[i] = edgeCoverLP(q)
	}
	m["lp.solve_us"] = us(timed(reps, lp.ResetMemo, func() {
		for _, p := range lps {
			_, err := lp.Solve(p)
			must(err)
		}
	})) / n
	m["fractional.compute_us"] = us(timed(reps, lp.ResetMemo, each(func(q *hypergraph.Query) {
		_, err := fractional.Compute(q)
		must(err)
	}))) / n
	m["fractional.psi_us"] = us(timed(reps, lp.ResetMemo, each(func(q *hypergraph.Query) {
		_, err := fractional.Psi(q)
		must(err)
	}))) / n
	m["hypergraph.canon_us"] = us(timed(reps, nil, each(func(q *hypergraph.Query) { hypergraph.Canon(q) }))) / n
	m["hypergraph.gyo_us"] = us(timed(reps, nil, each(func(q *hypergraph.Query) { hypergraph.GYO(q) }))) / n
	compile := each(func(q *hypergraph.Query) {
		_, err := coverpack.CompileQuery(q)
		must(err)
	})
	m["coverpack.compile_cold_us"] = us(timed(reps, resetAll, compile)) / n
	// The caches are warm from the last cold rep.
	m["coverpack.compile_warm_ns"] = float64(timed(reps, nil, func() {
		for i := 0; i < hotLoop; i++ {
			compile()
		}
	})) / hotLoop / n
	m["plan.for_hit_ns"] = float64(timed(reps, nil, func() {
		for i := 0; i < hotLoop; i++ {
			for _, q := range qs {
				plan.For(q)
			}
		}
	})) / hotLoop / n
	rep := 0
	var isos []*hypergraph.Query
	m["coverpack.compile_iso_us"] = us(timed(reps,
		func() {
			isos = isos[:0]
			for i, q := range qs {
				isos = append(isos, renamed(q, fmt.Sprintf("iso-%d-%d", rep, i)))
			}
			rep++
		},
		func() {
			for _, q := range isos {
				_, err := coverpack.CompileQuery(q)
				must(err)
			}
		})) / n
	return firstErr
}
