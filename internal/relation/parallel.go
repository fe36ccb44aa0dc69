package relation

import (
	"coverpack/internal/hashtab"
)

// The local-operator kernels.
//
// Every operator has one body, written over an ordered list of
// contiguous row blocks, in one of two shapes:
//
//   - mark-then-compact (the filter family — SelectEq, SelectGt,
//     SelectIn, SemiJoin — and Dedup): pass 1 lists the rows each block
//     keeps, the kept count sizes one arena exactly, pass 2 copies the
//     listed rows block by block.
//   - count-then-scatter (Join): pass 1 probes, keeps the matched build
//     chain of every probe row and counts the output rows per block,
//     the prefix sum sizes one arena exactly, pass 2 writes each block's
//     rows at its offset without hashing again.
//
// The filter family and Join are the Filter and Join steps of
// servers.go, whose two halves are these passes; a step given a Forker
// cuts each fragment it runs over into blocks.
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
	cuts := cutsOf(f, rows)
	if _, cutter := f.(blockCutter); f != nil && !cutter && f.Workers() > 1 && f.ParKernels() {
		if cuts == nil {
			parSeqCutoffs.Add(1)
		} else {
			parKernelRuns.Add(1)
		}
	}
	return cuts
}

// cutsOf is blocksOf without the counting, for a kernel's second look at
// a decision its first pass has counted.
func cutsOf(f Forker, rows int) []int {
	if f == nil || f.Workers() <= 1 || !f.ParKernels() {
		return nil
	}
	if c, ok := f.(blockCutter); ok {
		return c.cutBlocks(rows)
	}
	if rows < ParCutoff {
		return nil
	}
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

// identityPerm returns [0, 1, ..., n) as row indices.
func identityPerm(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// gatherInto copies the rows of r listed in sel, in order, to dst — the
// one compaction body (a filter's kept rows, Dedup's first occurrences, a
// sort's permutation).
func gatherInto[I int32 | Value](r *Relation, dst []Value, sel []I) {
	a := r.arity
	for k, i := range sel {
		copy(dst[k*a:(k+1)*a], r.data[int(i)*a:])
	}
}

// gatherBlocks is gatherInto block by block on f: cuts are over sel,
// nil for one block.
func gatherBlocks[I int32 | Value](r *Relation, dst []Value, sel []I, f Forker, cuts []int) {
	if cuts == nil {
		gatherInto(r, dst, sel)
		return
	}
	forkBlocks(f, cuts, func(_, lo, hi int) { gatherInto(r, dst[lo*r.arity:hi*r.arity], sel[lo:hi]) })
}

// gather returns the arena of the rows listed in sel, in order, copied
// block by block: cuts are over sel, nil for one block.
func (r *Relation) gather(sel []int32, f Forker, cuts []int) []Value {
	data := make([]Value, len(sel)*r.arity)
	gatherBlocks(r, data, sel, f, cuts)
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
func (p rowPred) mark(sel []Value, r *Relation, lo, hi int) int {
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
			sel[n] = Value(i)
			n++
		}
	}
	return n
}

// SemiJoinPar is r ⋉ s, SemiJoinStep's Filter over r alone with its
// probe scan cut into blocks on f. The build side is a keys-only table
// over s, borrowed from the hashtab pools for the call (shared read-only
// by all blocks). With no common attributes it returns r unchanged when
// s is nonempty and empty otherwise, matching the join semantics.
func (r *Relation) SemiJoinPar(s *Relation, f Forker) *Relation {
	common := r.schema.Common(s.schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return New(r.schema)
		}
		return r.Clone()
	}
	return one(r, semiJoinOn(r.schema, s.schema, common, nil, s, f))
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
// smallDedupCutoff rows the list is retained on the relation with its
// version stamp (index.go) — callers must not modify it — so repeated
// Dedup of an unchanged relation (shared inputs re-deduped per run)
// reuses it.
func (r *Relation) FirstRows() []int32 {
	if r.rows <= smallDedupCutoff {
		return r.firstSmall(make([]int32, 0, r.rows))
	}
	if indexCachingOff.Load() {
		return r.firstRows()
	}
	ver := r.Version()
	if l := r.first.Load(); l != nil && l.ver == ver {
		return l.rows
	}
	first := r.firstRows()
	r.first.Store(&firstList{ver: ver, rows: first})
	return first
}

// DedupPar returns the relation with duplicate tuples removed, in
// first-seen order: FirstRows is the mark pass, and the compaction runs
// block by block over f.
func (r *Relation) DedupPar(f Forker) *Relation {
	if r.rows <= smallDedupCutoff {
		var buf [smallDedupCutoff]int32
		first := r.firstSmall(buf[:0])
		data := make([]Value, len(first)*r.arity)
		gatherInto(r, data, first)
		return FromData(r.schema, data, len(first))
	}
	first := r.FirstRows()
	return FromData(r.schema, r.gather(first, f, blocksOf(f, len(first))), len(first))
}

// valuePos is the key position of a one-column key view.
var valuePos = []int{0}

// Degrees returns the degree of every value of attribute a — the number
// of rows holding it — as rows of out, in first-seen order: the
// per-server pre-aggregate of primitives.Degrees, and DegreesStep over r
// alone. out holds a and one count attribute; it is prebuilt so that
// callers hoist the NewSchema call, as with ProjectTo.
func (r *Relation) Degrees(a int, out Schema) *Relation {
	return one(r, DegreesStep(r.schema, a, out))
}

// joinRun is one natural join resolved to positions: the probe side is
// scanned in row order and each probe row meets its build rows in build
// order — the key index's chain, or every build row when probePos is nil
// (no shared attribute).
type joinRun struct {
	probe, build       *Relation
	ix                 keyChains
	probePos, buildPos []int
	probeOut, buildOut []int // column of the side -> output column
	arity              int
}

// count is pass 1 over probe rows [lo, hi): it keeps the head of every
// row's matched build chain (−1 for none) in chain and returns the
// number of output rows.
func (j *joinRun) count(chain []Value, lo, hi int) int {
	if j.probePos == nil {
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
func (j *joinRun) scatter(dst []Value, chain []Value, lo, hi int) {
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
		if j.probePos == nil {
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
// attributes; Cartesian product when none are shared): JoinStep's Join
// over r alone, the count-then-scatter kernel run block by block over f.
// The build side is the smaller relation, ties to s, indexed for the
// call: the table comes from the hashtab pools, and the chains and the
// per-probe-row matches share one pooled arena; both are released after
// the scatter. Output order is probe order × build order, and r × s row
// order for the product.
func (r *Relation) JoinPar(s *Relation, f Forker) *Relation {
	return one(r, joinStep(r.schema, s.schema, nil, s, f))
}
