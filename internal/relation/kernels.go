package relation

import "coverpack/internal/hashtab"

// The local-operator kernels.
//
// Every operator has one sequential body in one of two shapes:
//
//   - mark-then-compact (the filter family — SelectEq, SelectGt,
//     SelectIn, SemiJoin — and Dedup): pass 1 lists the rows the
//     operator keeps, the kept count sizes one arena exactly, pass 2
//     copies the listed rows.
//   - count-then-scatter (Join): pass 1 probes, keeps the matched build
//     chain of every probe row and counts the output rows, the count
//     sizes one arena exactly, pass 2 writes the rows without hashing
//     again.
//
// The filter family and Join are the Filter and Join steps of
// servers.go, whose two halves are these passes. Local parallelism is
// one level up: Fragments runs a step's halves over the servers of a
// distributed relation, and the servers are the tasks of the engine's
// fork. A kernel over one fragment always runs inline.

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

// gather returns the arena of the rows listed in sel, in order.
func (r *Relation) gather(sel []int32) []Value {
	data := make([]Value, len(sel)*r.arity)
	gatherInto(r, data, sel)
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

// mark lists the rows of r that p keeps, ascending, in sel (len ≥
// r.Len()) and returns how many there are.
func (p rowPred) mark(sel []Value, r *Relation) int {
	n, a := 0, r.arity
	for i := 0; i < r.rows; i++ {
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

// SemiJoin returns the tuples of r that agree with at least one tuple of
// s on their common attributes (r ⋉ s): SemiJoinStep's Filter over r
// alone. The build side is a keys-only table over s, borrowed from the
// hashtab pools for the call. With no common attributes it returns r
// unchanged when s is nonempty and empty otherwise, matching the join
// semantics.
func (r *Relation) SemiJoin(s *Relation) *Relation {
	common := r.schema.Common(s.schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return New(r.schema)
		}
		return r.Clone()
	}
	return one(r, semiJoinOn(r.schema, s.schema, common, nil, s))
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
// smallDedupCutoff rows the list is retained on the relation until it
// is mutated (index.go) — callers must not modify it — so repeated
// Dedup of an unchanged relation (shared inputs re-deduped per run)
// reuses it.
func (r *Relation) FirstRows() []int32 {
	if r.rows <= smallDedupCutoff {
		return r.firstSmall(make([]int32, 0, r.rows))
	}
	if l := r.first.Load(); l != nil {
		return *l
	}
	first := r.firstRows()
	r.first.Store(&first)
	return first
}

// Dedup returns the relation with duplicate tuples removed, in
// first-seen order: FirstRows is the mark pass, gather the compaction.
func (r *Relation) Dedup() *Relation {
	if r.rows <= smallDedupCutoff {
		var buf [smallDedupCutoff]int32
		first := r.firstSmall(buf[:0])
		data := make([]Value, len(first)*r.arity)
		gatherInto(r, data, first)
		return FromData(r.schema, data, len(first))
	}
	first := r.FirstRows()
	return FromData(r.schema, r.gather(first), len(first))
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

// count is pass 1: it keeps the head of every probe row's matched build
// chain (−1 for none) in chain and returns the number of output rows.
func (j *joinRun) count(chain []Value) int {
	if j.probePos == nil {
		return j.probe.rows * j.build.rows
	}
	n, a := 0, j.probe.arity
	for i := 0; i < j.probe.rows; i++ {
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

// scatter is pass 2: it writes the output rows to dst, which holds
// exactly count's number of rows.
func (j *joinRun) scatter(dst []Value, chain []Value) {
	emit := func(pt, bt Tuple) {
		for c, p := range j.probeOut {
			dst[p] = pt[c]
		}
		for c, p := range j.buildOut {
			dst[p] = bt[c]
		}
		dst = dst[j.arity:]
	}
	for i := 0; i < j.probe.rows; i++ {
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

// JoinCount returns Join(s).Len() without building the join: the
// size of r ⋈ s with bag semantics (a duplicate row matches once per
// copy), saturating at math.MaxInt64. It is the emit step of a plan
// whose last join is never exchanged. The build side is Join's; a
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
	// Both key-column lists fit a stack buffer for all but very wide keys.
	var buf [16]int
	pos := buf[:0]
	if 2*len(common) > len(buf) {
		pos = make([]int, 0, 2*len(common))
	}
	pos = build.schema.AppendPositions(pos, common)
	probePos := probe.schema.AppendPositions(pos[len(pos):], common)
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

// Join is the natural join r ⋈ s (hash join on the shared attributes;
// Cartesian product when none are shared): JoinStep's Join over r
// alone, the count-then-scatter kernel. The build side is the smaller
// relation, ties to s, indexed for the call: the table comes from the
// hashtab pools, and the chains and the per-probe-row matches share one
// pooled arena; both are released after the scatter. Output order is
// probe order × build order, and r × s row order for the product.
func (r *Relation) Join(s *Relation) *Relation {
	return one(r, joinStep(r.schema, s.schema, nil, s))
}
