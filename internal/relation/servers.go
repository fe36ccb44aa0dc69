package relation

import (
	"fmt"

	"coverpack/internal/hashtab"
)

// Server-major kernels.
//
// A distributed relation is one fragment per server, and the local steps
// between exchanges — filters, projections, degree counts, aggregation,
// sorting, the pair join — apply one operator to every fragment.
// Fragments runs such a step as one two-pass kernel over all of them,
// in the count-then-fill shape of kernels.go with the fragments as its
// units:
//
//   - pass 1 (Count) records each fragment's output row count in the row
//     field of its header in one header slab, keeping what pass 2 needs
//     in that fragment's share of one pooled scratch arena;
//   - one exactly sized arena is cut into capacity-capped views, one per
//     fragment, as NewSlabCounts does for exchanges;
//   - pass 2 (Fill) writes each fragment's rows into its view.
//
// A call allocates the header slab (the Relation structs and their
// pointer list) and the output arena, whatever the fragment count;
// fragment i's scratch offset is recomputed from the Scratch sizes of
// the fragments before it, and the scratch goes back to the pool before
// the call returns. The output arena is a plain exact make, not a pooled
// blob, so no arena is held until a cluster's Release.
//
// The single-relation operators (SelectEq, SelectGt, SelectIn,
// ProjectTo, Degrees, SemiJoin and Join) are the one-fragment case of
// the same halves (one).

// Forker runs n index tasks, possibly concurrently, returning after
// all complete. *mpc.Group implements it, over the engine's worker
// pool; tests use local fakes.
type Forker interface {
	Fork(n int, fn func(i int))
}

// A Step is a per-fragment operator split into the two halves of the
// server-major kernel. Schema is the output schema, fixed when the step
// is built. in is fragment i of the input; scratch is its share of the
// scratch arena, Scratch(i, in) values long and stale until Count
// writes it. Count returns the number of output rows and may keep
// per-row state in scratch; Fill writes exactly those rows — rows of
// them, row-major under Schema — to dst. Under a Forker the fragments of
// a pass run concurrently, so both halves must be pure: they write only
// scratch and dst and read in and data shared read-only.
type Step interface {
	Schema() Schema
	Scratch(i int, in *Relation) int
	Count(i int, in *Relation, scratch []Value) int
	Fill(i int, in *Relation, scratch, dst []Value, rows int)
}

// Fragments runs s over every relation of in and returns the outputs,
// under s.Schema(), in one header slab over one exact arena (see above).
// With a nil f the fragments run inline, one after the other; otherwise
// each pass is one f.Fork over them.
func Fragments[S Step](f Forker, in []*Relation, s S) []*Relation {
	schema := s.Schema()
	slab := make([]Relation, len(in))
	out := make([]*Relation, len(in))
	need := 0
	for i, r := range in {
		need += s.Scratch(i, r)
	}
	scratch := GetArena(need)[:need]
	if f == nil || len(in) < 2 {
		lo := 0
		for i, r := range in {
			hi := lo + s.Scratch(i, r)
			slab[i] = Relation{schema: schema, arity: schema.Len(), rows: s.Count(i, r, scratch[lo:hi:hi])}
			lo = hi
		}
		carve(slab)
		lo = 0
		for i, r := range in {
			hi := lo + s.Scratch(i, r)
			s.Fill(i, r, scratch[lo:hi:hi], slab[i].data, slab[i].rows)
			lo = hi
		}
	} else {
		fragmentsPar(f, in, slab, schema, scratch, s)
	}
	PutArena(scratch)
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

// fragmentsPar is Fragments' two passes as forks over f. The tasks need
// their scratch offsets at once, so these are listed first, in a pooled
// buffer.
func fragmentsPar[S Step](f Forker, in []*Relation, slab []Relation, schema Schema, scratch []Value, s S) {
	offs := GetArena(len(in) + 1)[:len(in)+1]
	offs[0] = 0
	for i, r := range in {
		offs[i+1] = offs[i] + Value(s.Scratch(i, r))
	}
	f.Fork(len(in), func(i int) {
		lo, hi := offs[i], offs[i+1]
		slab[i] = Relation{schema: schema, arity: schema.Len(), rows: s.Count(i, in[i], scratch[lo:hi:hi])}
	})
	carve(slab)
	f.Fork(len(in), func(i int) {
		lo, hi := offs[i], offs[i+1]
		s.Fill(i, in[i], scratch[lo:hi:hi], slab[i].data, slab[i].rows)
	})
	PutArena(offs)
}

// carve gives every header of slab, each holding its row count, its
// capacity-capped region of one exactly sized arena, in slab order. A
// relation that later grows reallocates on its own, so it never writes
// into a neighbour's region.
func carve(slab []Relation) {
	total := 0
	for i := range slab {
		total += slab[i].rows * slab[i].arity
	}
	if total == 0 {
		return
	}
	data := make([]Value, total)
	lo := 0
	for i := range slab {
		hi := lo + slab[i].rows*slab[i].arity
		slab[i].data = data[lo:hi:hi]
		lo = hi
	}
}

// one runs s over r alone — the one-fragment case of Fragments, with the
// output in a relation of its own. The halves are called through the
// instantiation's dictionary, so everything passed to them escapes: the
// scratch comes from the pool however small it is.
func one[S Step](r *Relation, s S) *Relation {
	schema := s.Schema()
	need := s.Scratch(0, r)
	scratch := GetArena(need)[:need]
	n := s.Count(0, r, scratch)
	data := make([]Value, n*schema.Len())
	s.Fill(0, r, scratch, data, n)
	PutArena(scratch)
	return FromData(schema, data, n)
}

// Filter is the step of the filter family: the rows a predicate keeps,
// in row order. Count marks them in scratch, Fill gathers them. The
// output schema is the input's.
type Filter struct {
	p   rowPred
	out Schema
	// build, for a semi-join, holds the fragments whose keys fragment i
	// is probed against (pair, when the step runs over one relation):
	// Count builds a borrowed table over it on buildPos and returns the
	// table to the pool before it returns.
	build    []*Relation
	pair     *Relation
	buildPos []int
}

// SelectEqStep is the Filter of SelectEq(a, v) over relations of schema
// in.
func SelectEqStep(in Schema, a int, v Value) Filter {
	return Filter{p: rowPred{op: predEq, col: in.selectPos("SelectEq", a), v: v}, out: in}
}

// SelectGtStep is the Filter of SelectGt(a, v) over relations of schema
// in.
func SelectGtStep(in Schema, a int, v Value) Filter {
	return Filter{p: rowPred{op: predGt, col: in.selectPos("SelectGt", a), v: v}, out: in}
}

// SelectInStep is the Filter of SelectIn(a, set, keep) over relations of
// schema in.
func SelectInStep(in Schema, a int, set map[Value]bool, keep bool) Filter {
	op := predIn
	if !keep {
		op = predNotIn
	}
	return Filter{p: rowPred{op: op, col: in.selectPos("SelectIn", a), set: set}, out: in}
}

// SemiJoinStep is the Filter of the semi-join of fragment i (schema in)
// with build[i] (schema bs): the probe of SemiJoin, one borrowed key
// table per fragment. The schemas must share an attribute.
func SemiJoinStep(in, bs Schema, build []*Relation) Filter {
	common := in.Common(bs)
	if len(common) == 0 {
		panic(fmt.Sprintf("relation: SemiJoinStep schemas %v and %v share no attribute", in, bs))
	}
	return semiJoinOn(in, bs, common, build, nil)
}

// semiJoinOn is SemiJoinStep with the common attributes resolved; pair,
// when build is nil, is the one build side.
func semiJoinOn(in, bs Schema, common []int, build []*Relation, pair *Relation) Filter {
	pos := in.AppendPositions(make([]int, 0, 2*len(common)), common)
	return Filter{p: rowPred{op: predProbe, pos: pos}, out: in,
		build: build, pair: pair, buildPos: bs.AppendPositions(pos[len(pos):], common)}
}

// other returns fragment i's other side: all[i], or pair when all is
// nil. A one-relation step keeps its other side in pair, not in a
// one-element list, because the list would escape through one's
// dictionary call.
func other(all []*Relation, pair *Relation, i int) *Relation {
	if all == nil {
		return pair
	}
	return all[i]
}

func (s Filter) Schema() Schema { return s.out }

func (s Filter) Scratch(_ int, in *Relation) int { return in.rows }

func (s Filter) Count(i int, in *Relation, sel []Value) int {
	if s.p.op != predProbe {
		return s.p.mark(sel, in)
	}
	b := other(s.build, s.pair, i)
	var keys hashtab.Table
	keys.Init(len(s.buildPos), b.rows)
	for k := 0; k < b.rows; k++ {
		keys.Insert(b.Row(k), s.buildPos)
	}
	p := s.p
	p.probe = &keys
	n := p.mark(sel, in)
	keys.Release()
	return n
}

func (s Filter) Fill(_ int, in *Relation, sel, dst []Value, rows int) {
	gatherInto(in, dst, sel[:rows])
}

// Project is ProjectTo's step: every row, reduced to the columns of the
// output schema.
type Project struct {
	pos []int
	out Schema
}

// ProjectStep is the Project from relations of schema in to out,
// panicking when out has an attribute in lacks.
func ProjectStep(in, out Schema) Project {
	pos := make([]int, out.Len())
	for i := range pos {
		a := out.Attr(i)
		if pos[i] = in.Pos(a); pos[i] < 0 {
			panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", a, in))
		}
	}
	return Project{pos: pos, out: out}
}

func (s Project) Schema() Schema { return s.out }

func (s Project) Scratch(int, *Relation) int { return 0 }

func (s Project) Count(_ int, in *Relation, _ []Value) int { return in.rows }

func (s Project) Fill(_ int, in *Relation, _, dst []Value, rows int) {
	k := 0
	for i := 0; i < rows; i++ {
		t := in.data[i*in.arity:]
		for _, p := range s.pos {
			dst[k] = t[p]
			k++
		}
	}
}

// DegreeCount is Degrees' step: one (value, count) row per distinct
// value of the column, in first-seen order. Count finds the groups — by
// linear scan over the groups found so far up to smallDedupCutoff rows,
// through a borrowed hash table above — and keeps group e's value and
// count at scratch[2e] and scratch[2e+1]; Fill lays them out.
type DegreeCount struct {
	col, vp int
	out     Schema
}

// DegreesStep is the DegreeCount of attribute a over relations of
// schema in; out holds a and one count attribute.
func DegreesStep(in Schema, a int, out Schema) DegreeCount {
	col := in.selectPos("Degrees", a)
	vp := out.Pos(a)
	if out.Len() != 2 || vp < 0 {
		panic(fmt.Sprintf("relation: Degrees schema %v is not attribute %d plus a count", out, a))
	}
	return DegreeCount{col: col, vp: vp, out: out}
}

func (s DegreeCount) Schema() Schema { return s.out }

func (s DegreeCount) Scratch(_ int, in *Relation) int { return 2 * in.rows }

func (s DegreeCount) Count(_ int, in *Relation, sc []Value) int {
	if in.rows <= smallDedupCutoff {
		n := 0
	rows:
		for i := 0; i < in.rows; i++ {
			v := in.data[i*in.arity+s.col]
			for e := 0; e < n; e++ {
				if sc[2*e] == v {
					sc[2*e+1]++
					continue rows
				}
			}
			sc[2*n], sc[2*n+1] = v, 1
			n++
		}
		return n
	}
	var groups hashtab.Table
	groups.Init(1, in.rows)
	for i := 0; i < in.rows; i++ {
		k := i*in.arity + s.col
		if e, found := groups.Insert(in.data[k:k+1], valuePos); found {
			sc[2*e+1]++
		} else {
			sc[2*e], sc[2*e+1] = in.data[k], 1
		}
	}
	n := groups.Len()
	groups.Release()
	return n
}

func (s DegreeCount) Fill(_ int, _ *Relation, sc, dst []Value, rows int) {
	for e := 0; e < rows; e++ {
		dst[2*e+s.vp], dst[2*e+1-s.vp] = sc[2*e], sc[2*e+1]
	}
}

// Join is the step of the natural join of fragment i (the left side)
// with other[i] (the right side), the kernel of Relation.Join: the build
// side of each pair is the smaller, ties to the right, and Count keeps
// the build side's chains and every probe row's matched chain in
// scratch — the key table goes back to the pool before Count returns.
type Join struct {
	other []*Relation
	pair  *Relation // the other side of a one-relation step
	// lpos and rpos are the join key's columns on each side, nil for a
	// Cartesian product; lout and rout map each side's columns to output
	// columns.
	lpos, rpos, lout, rout []int
	out                    Schema
}

// JoinStep is the Join of relations of schema in with other, whose
// relations have schema os; the output schema is in.Union(os).
func JoinStep(in, os Schema, other []*Relation) Join {
	return joinStep(in, os, other, nil)
}

// joinStep is JoinStep with pair, when others is nil, the one other
// side.
func joinStep(in, os Schema, others []*Relation, pair *Relation) Join {
	out := in.Union(os)
	s := Join{other: others, pair: pair, out: out}
	// One allocation holds the output map of both sides and, after it,
	// the join key's columns on each.
	common := in.Common(os)
	outPos := make([]int, in.Len()+os.Len(), in.Len()+os.Len()+2*len(common))
	for c, a := range in.attrs {
		outPos[c] = out.Pos(a)
	}
	for c, a := range os.attrs {
		outPos[in.Len()+c] = out.Pos(a)
	}
	s.lout, s.rout = outPos[:in.Len()], outPos[in.Len():]
	if len(common) > 0 {
		s.lpos = in.AppendPositions(outPos[len(outPos):], common)
		s.rpos = os.AppendPositions(s.lpos[len(s.lpos):], common)
	}
	return s
}

// run resolves fragment i's pair to a joinRun, its probe and build
// sides chosen.
func (s Join) run(i int, in *Relation) joinRun {
	j := joinRun{probe: in, build: other(s.other, s.pair, i), probePos: s.lpos, buildPos: s.rpos,
		probeOut: s.lout, buildOut: s.rout, arity: s.out.Len()}
	if s.lpos != nil && in.rows < j.build.rows {
		j.probe, j.build = j.build, j.probe
		j.probePos, j.buildPos = j.buildPos, j.probePos
		j.probeOut, j.buildOut = j.buildOut, j.probeOut
	}
	return j
}

func (s Join) Schema() Schema { return s.out }

// Scratch is the chains (2 values a build row) and the matched chain of
// every probe row.
func (s Join) Scratch(i int, in *Relation) int {
	if s.lpos == nil {
		return 0
	}
	j := s.run(i, in)
	return 2*j.build.rows + j.probe.rows
}

func (s Join) Count(i int, in *Relation, sc []Value) int {
	j := s.run(i, in)
	if j.probePos == nil {
		return j.count(nil)
	}
	var tab hashtab.Table
	nb := 2 * j.build.rows
	j.ix = chainsOn(&tab, j.build, j.buildPos, sc[:nb])
	n := j.count(sc[nb:])
	tab.Release()
	return n
}

func (s Join) Fill(i int, in *Relation, sc, dst []Value, _ int) {
	j := s.run(i, in)
	var chain []Value
	if j.probePos != nil {
		j.ix.next = sc[:j.build.rows]
		chain = sc[2*j.build.rows:]
	}
	j.scatter(dst, chain)
}

// Sorted is the step of a fragment-local stable sort on pos: every row,
// or with every > 0 one sample row per every-th of the sorted order, in
// sorted order. Fill lists the order (SortBy's kernel) and gathers the
// rows into dst.
type Sorted struct {
	out     Schema
	pos     []int
	samples int
}

// SortStep is the Sorted of all rows of relations of schema in on pos.
func SortStep(in Schema, pos []int) Sorted { return Sorted{out: in, pos: pos} }

// SampleStep is the Sorted sample of up to about k evenly spaced rows
// of the sorted order: rows 0, s, 2s, … for s = max(n/k, 1).
func SampleStep(in Schema, pos []int, k int) Sorted {
	return Sorted{out: in, pos: pos, samples: k}
}

func (s Sorted) Schema() Schema { return s.out }

// stride is the distance between emitted rows of the sorted order of n
// rows.
func (s Sorted) stride(n int) int {
	if s.samples <= 0 {
		return 1
	}
	return max(n/s.samples, 1)
}

func (s Sorted) Scratch(int, *Relation) int { return 0 }

func (s Sorted) Count(_ int, in *Relation, _ []Value) int {
	st := s.stride(in.rows)
	return (in.rows + st - 1) / st
}

func (s Sorted) Fill(_ int, in *Relation, _, dst []Value, rows int) {
	var perm []int32
	if in.rows >= 2 && in.arity > 0 && len(s.pos) > 0 {
		perm = in.sortPerm(s.pos)
	}
	st, a := s.stride(in.rows), in.arity
	for k := 0; k < rows; k++ {
		i := k * st
		if perm != nil {
			i = int(perm[i])
		}
		copy(dst[k*a:(k+1)*a], in.data[i*a:])
	}
}
