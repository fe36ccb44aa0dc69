package relation

import (
	"fmt"

	"coverpack/internal/hashtab"
)

// The local-operator kernels.
//
// Every operator has one body, written over an ordered list of
// contiguous row blocks, in one of two shapes:
//
//   - mark-then-compact (the filter family — SelectEq, SelectGt,
//     SelectIn, SemiJoin — and Dedup): pass 1 lists the rows each block keeps, the
//     per-block counts size one arena exactly, pass 2 copies each
//     block's rows to its offset.
//   - count-then-scatter (Join): pass 1 probes, keeps the matched build
//     chain of every probe row and counts the output rows per block,
//     the prefix sum sizes one arena exactly, pass 2 writes each block's
//     rows at its offset without hashing again.
//
// Blocks partition the input in row order and block b's output lands
// before block b+1's, so the output is the same for any cut: one block
// is the sequential operator, and that is what runs — inline, with no
// fork, block list or offset table — under a nil Forker, one worker,
// parallel kernels off or an input below ParCutoff. SortBy (radix.go)
// follows the same rule with per-block radix histograms.
//
// The kernels accept any Forker; the engine's *mpc.Group satisfies it,
// so local operators running inside a Parallel branch fan out over the
// same morsel-queue token pool as the exchange operators (nested forks
// degrade to inline execution when the pool is busy, which keeps the
// per-phase barriers deadlock-free). Each phase is one Fork call — the
// Fork return is the barrier between phases; task bodies only write
// caller-owned disjoint slots.

// ParCutoff is the row count below which a kernel runs as one block:
// under it, fork setup costs more than the scan saves. Cutoff hits are
// counted (ParStats) to make the heuristic observable.
const ParCutoff = 4096

// parBlockFactor and parMinBlock shape the block decomposition:
// at most workers×parBlockFactor blocks (so stolen blocks rebalance
// skew) of at least parMinBlock rows (so per-block fixed costs stay
// amortized).
const (
	parBlockFactor = 4
	parMinBlock    = 512
)

// smallRows is the input size up to which a one-block kernel keeps its
// per-row scratch (kept-row list, matched chains) in a stack buffer.
const smallRows = 64

// Forker runs n index tasks, possibly concurrently, returning after
// all complete. Workers reports the potential concurrency (1 means
// sequential); ParKernels reports whether the run allows kernels to
// run over several blocks at all (off, every kernel runs one block —
// outputs are byte-identical either way, the setting exists for the
// differential tests). *mpc.Group implements it; tests use local fakes.
type Forker interface {
	Fork(n int, fn func(i int))
	Workers() int
	ParKernels() bool
}

// blockCutter is a Forker that dictates the cut points itself, so that
// tests can run the kernels over arbitrary blocks of small inputs.
type blockCutter interface {
	cutBlocks(rows int) []int
}

// blocksOf returns the cut points of the blocks a kernel over rows runs
// on f — block b is rows [cuts[b], cuts[b+1]) — or nil for one block
// run inline, and counts the decision.
func blocksOf(f Forker, rows int) []int {
	if f == nil || f.Workers() <= 1 || !f.ParKernels() {
		return nil
	}
	if c, ok := f.(blockCutter); ok {
		return c.cutBlocks(rows)
	}
	if rows < ParCutoff {
		parSeqCutoffs.Add(1)
		return nil
	}
	parKernelRuns.Add(1)
	nb := min(f.Workers()*parBlockFactor, (rows+parMinBlock-1)/parMinBlock)
	cuts := make([]int, nb+1)
	for b := range cuts {
		cuts[b] = rows * b / nb
	}
	return cuts
}

// forkBlocks runs body once per block of cuts on f.
func forkBlocks(f Forker, cuts []int, body func(b, lo, hi int)) {
	f.Fork(len(cuts)-1, func(b int) { body(b, cuts[b], cuts[b+1]) })
}

// twoPass is the skeleton both shapes share over several blocks: count
// reports the output rows of a block, the prefix sum sizes the arena
// exactly, and write fills a block's region dst of n rows. It returns
// the arena and its row count.
func twoPass(f Forker, cuts []int, arity int, count func(lo, hi int) int, write func(dst []Value, n, lo, hi int)) ([]Value, int) {
	offs := make([]int, len(cuts))
	forkBlocks(f, cuts, func(b, lo, hi int) { offs[b+1] = count(lo, hi) })
	for b := 1; b < len(offs); b++ {
		offs[b] += offs[b-1]
	}
	total := offs[len(offs)-1]
	data := make([]Value, total*arity)
	forkBlocks(f, cuts, func(b, lo, hi int) {
		write(data[offs[b]*arity:offs[b+1]*arity], offs[b+1]-offs[b], lo, hi)
	})
	return data, total
}

// identityPerm returns [0, 1, ..., n) as row indices.
func identityPerm(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// gatherInto copies the rows listed in sel, in order, to dst — the one
// compaction body (a filter's kept rows, Dedup's first occurrences, a
// sort's permutation).
func (r *Relation) gatherInto(dst []Value, sel []int32) {
	a := r.arity
	for k, i := range sel {
		copy(dst[k*a:(k+1)*a], r.data[int(i)*a:])
	}
}

// gather returns the arena of the rows listed in sel, in order, copied
// block by block: cuts are over sel, nil for one block.
func (r *Relation) gather(sel []int32, f Forker, cuts []int) []Value {
	data := make([]Value, len(sel)*r.arity)
	if cuts == nil {
		r.gatherInto(data, sel)
	} else {
		forkBlocks(f, cuts, func(_, lo, hi int) { r.gatherInto(data[lo*r.arity:hi*r.arity], sel[lo:hi]) })
	}
	return data
}

// predOp is the test a rowPred applies to a row.
type predOp uint8

const (
	predEq    predOp = iota // value at col == v
	predGt                  // value at col > v
	predIn                  // value at col in set
	predNotIn               // value at col not in set
	predProbe               // key on pos found in probe
)

// rowPred is a filter-family predicate as data, so that a kernel call
// carries no closure.
type rowPred struct {
	op    predOp
	col   int
	v     Value
	set   map[Value]bool
	probe *hashtab.Table
	pos   []int
}

// mark lists the rows of [lo, hi) that p keeps, ascending, in sel
// (len ≥ hi−lo) and returns how many there are.
func (p rowPred) mark(sel []int32, r *Relation, lo, hi int) int {
	n, a := 0, r.arity
	for i := lo; i < hi; i++ {
		var keep bool
		switch p.op {
		case predEq:
			keep = r.data[i*a+p.col] == p.v
		case predGt:
			keep = r.data[i*a+p.col] > p.v
		case predIn:
			keep = p.set[r.data[i*a+p.col]]
		case predNotIn:
			keep = !p.set[r.data[i*a+p.col]]
		case predProbe:
			keep = p.probe.Find(r.data[i*a:(i+1)*a], p.pos) >= 0
		}
		if keep {
			sel[n] = int32(i)
			n++
		}
	}
	return n
}

// filterRows is the mark-then-compact kernel: the rows p keeps, in row
// order.
func (r *Relation) filterRows(p rowPred, f Forker) *Relation {
	cuts := blocksOf(f, r.rows)
	if cuts == nil {
		var buf [smallRows]int32
		sel := r.markAll(p, buf[:])
		data := make([]Value, len(sel)*r.arity)
		r.gatherInto(data, sel)
		return FromData(r.schema, data, len(sel))
	}
	sel := make([]int32, r.rows)
	data, total := twoPass(f, cuts, r.arity,
		func(lo, hi int) int { return p.mark(sel[lo:hi], r, lo, hi) },
		func(dst []Value, n, lo, _ int) { r.gatherInto(dst, sel[lo:lo+n]) })
	return FromData(r.schema, data, total)
}

// markAll is the one-block mark pass: the rows p keeps, listed in buf
// when they fit and in a fresh list otherwise.
func (r *Relation) markAll(p rowPred, buf []int32) []int32 {
	sel := buf
	if r.rows > len(buf) {
		sel = make([]int32, r.rows)
	}
	return sel[:p.mark(sel, r, 0, r.rows)]
}

// SemiJoinPar is r ⋉ s with the probe scan run block by block over f.
// The build side reuses the retained key index (shared read-only by all
// blocks). With no common attributes it returns r unchanged when s is
// nonempty and empty otherwise, matching the join semantics.
func (r *Relation) SemiJoinPar(s *Relation, f Forker) *Relation {
	common := r.schema.Common(s.schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return New(r.schema)
		}
		return r.Clone()
	}
	probe := s.indexOn(s.schema.Positions(common)).table
	return r.filterRows(rowPred{op: predProbe, probe: probe, pos: r.schema.Positions(common)}, f)
}

// smallDedupCutoff is the input size up to which Dedup and Degrees find
// first occurrences by linear scan; see smallAggCutoff in
// internal/primitives for the same trade-off.
const smallDedupCutoff = 32

// firstSmall appends to buf the index of the first occurrence of every
// distinct row, ascending, comparing each row against the rows already
// listed — no table or position allocations.
func (r *Relation) firstSmall(buf []int32) []int32 {
	for i := 0; i < r.rows; i++ {
		t, dup := r.Row(i), false
		for _, e := range buf {
			if dup = r.Row(int(e)).Equal(t); dup {
				break
			}
		}
		if !dup {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// FirstRows returns the row index of the first occurrence of every
// distinct row, ascending: row FirstRows()[k] is row k of Dedup(). Above
// smallDedupCutoff rows the list is the retained full-row key index's
// heads (entry e's head row is the first occurrence of its key, and
// entries enumerate in first-insert order), shared with the index —
// callers must not modify it — so repeated Dedup of an unchanged
// relation (shared inputs re-deduped per run) reuses it.
func (r *Relation) FirstRows() []int32 {
	if r.rows <= smallDedupCutoff {
		return r.firstSmall(make([]int32, 0, r.rows))
	}
	return r.indexOn(identityPositions(r.arity)).heads
}

// DedupPar returns the relation with duplicate tuples removed, in
// first-seen order: FirstRows is the mark pass, and the compaction runs
// block by block over f.
func (r *Relation) DedupPar(f Forker) *Relation {
	if r.rows <= smallDedupCutoff {
		var buf [smallDedupCutoff]int32
		first := r.firstSmall(buf[:0])
		data := make([]Value, len(first)*r.arity)
		r.gatherInto(data, first)
		return FromData(r.schema, data, len(first))
	}
	first := r.FirstRows()
	return FromData(r.schema, r.gather(first, f, blocksOf(f, len(first))), len(first))
}

// valuePos is the key position of a one-column key view.
var valuePos = []int{0}

// Degrees returns the degree of every value of attribute a — the number
// of rows holding it — as rows of out, in first-seen order: the
// per-server pre-aggregate of primitives.Degrees. out holds a and one
// count attribute; it is prebuilt so that per-fragment loops hoist the
// NewSchema call, as with ProjectTo. Up to smallDedupCutoff rows the
// values are found by linear scan on the stack, above it through one
// pooled hash table; either way the output arena is sized exactly.
func (r *Relation) Degrees(a int, out Schema) *Relation {
	col := r.selectPos("Degrees", a)
	vp := out.Pos(a)
	if out.Len() != 2 || vp < 0 {
		panic(fmt.Sprintf("relation: Degrees schema %v is not attribute %d plus a count", out, a))
	}
	if r.rows <= smallDedupCutoff {
		var vals, cnts [smallDedupCutoff]Value
		n := 0
	rows:
		for i := 0; i < r.rows; i++ {
			v := r.data[i*r.arity+col]
			for e := 0; e < n; e++ {
				if vals[e] == v {
					cnts[e]++
					continue rows
				}
			}
			vals[n], cnts[n] = v, 1
			n++
		}
		return degreeRows(out, vp, n, func(e int) (Value, Value) { return vals[e], cnts[e] })
	}
	groups := hashtab.New(1, r.rows)
	cnts := GetArena(r.rows)
	for i := 0; i < r.rows; i++ {
		k := i*r.arity + col
		if e, found := groups.Insert(r.data[k:k+1], valuePos); found {
			cnts[e]++
		} else {
			cnts = append(cnts, 1)
		}
	}
	degs := degreeRows(out, vp, groups.Len(), func(e int) (Value, Value) { return groups.Key(e)[0], cnts[e] })
	PutArena(cnts)
	groups.Release()
	return degs
}

// degreeRows lays out n (value, count) pairs, read from at, as rows of
// schema with the value at column vp.
func degreeRows(schema Schema, vp, n int, at func(e int) (Value, Value)) *Relation {
	data := make([]Value, 2*n)
	for e := 0; e < n; e++ {
		data[2*e+vp], data[2*e+1-vp] = at(e)
	}
	return FromData(schema, data, n)
}

// joinRun is one natural join resolved to positions: the probe side is
// scanned in row order and each probe row meets its build rows in build
// order — the key index's chain, or every build row when ix is nil (no
// shared attribute).
type joinRun struct {
	probe, build       *Relation
	ix                 *keyIndex
	probePos           []int
	probeOut, buildOut []int // column of the side -> output column
	arity              int
}

// count is pass 1 over probe rows [lo, hi): it keeps the head of every
// row's matched build chain (−1 for none) in chain and returns the
// number of output rows.
func (j *joinRun) count(chain []int32, lo, hi int) int {
	if j.ix == nil {
		return (hi - lo) * j.build.rows
	}
	n, a := 0, j.probe.arity
	for i := lo; i < hi; i++ {
		chain[i] = -1
		if e := j.ix.table.Find(j.probe.data[i*a:(i+1)*a], j.probePos); e >= 0 {
			chain[i] = j.ix.heads[e]
			for b := chain[i]; b >= 0; b = j.ix.next[b] {
				n++
			}
		}
	}
	return n
}

// scatter is pass 2: it writes the output rows of probe rows [lo, hi)
// to dst, which holds exactly count's number of rows.
func (j *joinRun) scatter(dst []Value, chain []int32, lo, hi int) {
	emit := func(pt, bt Tuple) {
		for c, p := range j.probeOut {
			dst[p] = pt[c]
		}
		for c, p := range j.buildOut {
			dst[p] = bt[c]
		}
		dst = dst[j.arity:]
	}
	for i := lo; i < hi; i++ {
		pt := j.probe.Row(i)
		if j.ix == nil {
			for b := 0; b < j.build.rows; b++ {
				emit(pt, j.build.Row(b))
			}
			continue
		}
		for b := chain[i]; b >= 0; b = j.ix.next[b] {
			emit(pt, j.build.Row(int(b)))
		}
	}
}

// JoinCount returns JoinPar(s, f).Len() without building the join: the
// size of r ⋈ s with bag semantics (a duplicate row matches once per
// copy), saturating at math.MaxInt64. It is the emit step of a plan
// whose last join is never exchanged. The build side is JoinPar's; a
// transient per-key count table over it is probed by the other side and
// released to the hashtab pool, so the cost is O(|r| + |s|) whatever the
// output size, and no index is retained.
func (r *Relation) JoinCount(s *Relation) int64 {
	if r.rows == 0 || s.rows == 0 {
		return 0
	}
	common := r.schema.Common(s.schema)
	if len(common) == 0 {
		return MulSat(int64(r.rows), int64(s.rows))
	}
	probe, build := r, s
	if r.rows < s.rows {
		probe, build = s, r
	}
	pos, probePos := build.schema.Positions(common), probe.schema.Positions(common)
	a := probe.arity
	table, counts := sumByKey(build, nil, pos)
	var n int64
	for i := 0; i < probe.rows; i++ {
		if k := table.Find(probe.data[i*a:(i+1)*a], probePos); k >= 0 {
			n = AddSat(n, counts[k])
		}
	}
	table.Release()
	return n
}

// JoinPar is the natural join r ⋈ s (hash join on the shared
// attributes; Cartesian product when none are shared), the
// count-then-scatter kernel run block by block over f. The build side
// is the smaller relation, ties to s, found through its retained key
// index — one left by an earlier keyed operator on the same side and
// key (the semi-join that filtered it) is reused as it is; output order
// is probe order × build order, and r × s row order for the product.
func (r *Relation) JoinPar(s *Relation, f Forker) *Relation {
	common := r.schema.Common(s.schema)
	out := r.schema.Union(s.schema)
	j := joinRun{probe: r, build: s, arity: out.Len()}
	if len(common) > 0 {
		if r.Len() < s.Len() {
			j.probe, j.build = s, r
		}
		j.ix = j.build.indexOn(j.build.schema.Positions(common))
		j.probePos = j.probe.schema.Positions(common)
	}
	outPos := make([]int, j.probe.arity+j.build.arity)
	for c, a := range j.probe.schema.attrs {
		outPos[c] = out.Pos(a)
	}
	for c, a := range j.build.schema.attrs {
		outPos[j.probe.arity+c] = out.Pos(a)
	}
	j.probeOut, j.buildOut = outPos[:j.probe.arity], outPos[j.probe.arity:]

	rows, marked := j.probe.rows, j.probe.rows
	if j.ix == nil {
		marked = 0 // a product matches every build row: nothing to keep per probe row
	}
	cuts := blocksOf(f, rows)
	if cuts == nil {
		var buf [smallRows]int32
		chain := buf[:]
		if marked > len(buf) {
			chain = make([]int32, marked)
		}
		n := j.count(chain, 0, rows)
		data := make([]Value, n*j.arity)
		j.scatter(data, chain, 0, rows)
		return FromData(out, data, n)
	}
	jb := j // the closures below make their joinRun escape; j stays on the stack
	chain := make([]int32, marked)
	data, total := twoPass(f, cuts, jb.arity,
		func(lo, hi int) int { return jb.count(chain, lo, hi) },
		func(dst []Value, _, lo, hi int) { jb.scatter(dst, chain, lo, hi) })
	return FromData(out, data, total)
}
