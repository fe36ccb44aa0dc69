package primitives

import (
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// This file implements distributed sorting — the substrate primitive
// the paper's Section 2 toolbox rests on ([13]: reduce-by-key and
// friends are built from O(1)-round MPC sorting with load O(N/p)).
// The implementation is the classic sample sort: every server
// contributes a deterministic sample, splitters are chosen from the
// gathered sample (charged), tuples are routed by range, and each
// server sorts locally.

// sortKey compares tuples lexicographically on the given schema
// positions.
func lessOn(a, b relation.Tuple, pos []int) bool {
	for _, p := range pos {
		if a[p] != b[p] {
			return a[p] < b[p]
		}
	}
	return false
}

// Sort range-partitions d by the given attributes and sorts each
// fragment locally: afterwards fragment i holds a contiguous key range,
// ranges are ascending with i, and every fragment is internally sorted.
// Two rounds (sample gather + route) plus local work; with the
// per-server oversampling factor used here the expected per-server
// load is O(N/p + sample).
func Sort(g *mpc.Group, d *mpc.DistRelation, attrs []int) *mpc.DistRelation {
	p := g.Size()
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		pp := d.Schema.Pos(a)
		if pp < 0 {
			panic("primitives: Sort attribute not in schema")
		}
		pos[i] = pp
	}
	if p == 1 {
		return mpc.Local(g, d, relation.SortStep(d.Schema, pos))
	}

	// Round 1: deterministic per-server sample (every ⌈n_s/(4)⌉-th
	// tuple of the locally sorted fragment, at most 4 per server... we
	// take up to 8 evenly spaced keys per server), gathered to the
	// driver (charged via Gather).
	const perServer = 8
	sampleRel := mpc.Local(g, d, relation.SampleStep(d.Schema, pos, perServer))
	// The gathered sample holds at most perServer·p rows: one stable
	// sort orders it.
	sample := g.Gather(sampleRel)
	sample.SortBy(pos)

	// Splitters: p−1 evenly spaced sample keys. The views stay valid for
	// the routing round below because sample is never mutated again.
	splitters := make([]relation.Tuple, 0, p-1)
	if sample.Len() > 0 {
		for i := 1; i < p; i++ {
			idx := i * sample.Len() / p
			splitters = append(splitters, sample.Row(idx))
		}
	}
	destOf := func(t relation.Tuple) int {
		lo, hi := 0, len(splitters)
		for lo < hi {
			mid := (lo + hi) / 2
			if lessOn(t, splitters[mid], pos) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}

	// Round 2: range routing, then local sort.
	routed := g.RouteFan(d, func(_ int, t relation.Tuple) int { return destOf(t) }, nil)
	// The splitters may be views of sampleRel's arena (a sorted sample
	// keeps it), which the routing round was their last read of.
	g.Free(sampleRel)
	// Each server stably sorts its range; the servers are the tasks of
	// the group's worker pool, and the result is byte-identical at any
	// worker count.
	out := mpc.Local(g, routed, relation.SortStep(routed.Schema, pos))
	g.Free(routed)
	return out
}
