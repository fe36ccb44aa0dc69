package relation

import "slices"

// Naive references for the block kernels. They share no code with the
// kernels — no hash table, no index, no permutation, no position maps —
// and pin the output order contract as well as the content: every
// kernel test compares arenas byte for byte.

// refAgree reports whether rt (under rs) and st (under ss) hold the
// same value on every attribute the two schemas share.
func refAgree(rs Schema, rt Tuple, ss Schema, st Tuple) bool {
	for i, a := range rs.Attrs() {
		if j := ss.Pos(a); j >= 0 && rt[i] != st[j] {
			return false
		}
	}
	return true
}

// refJoin is the nested-loop natural join in Join's order: the outer
// loop is the larger relation (r on a tie, and always r for a product),
// the inner loop the other one, both in row order.
func refJoin(r, s *Relation) *Relation {
	out := New(r.Schema().Union(s.Schema()))
	outer, inner := r, s
	if len(r.Schema().Common(s.Schema())) > 0 && r.Len() < s.Len() {
		outer, inner = s, r
	}
	for i := 0; i < outer.Len(); i++ {
		for j := 0; j < inner.Len(); j++ {
			ot, it := outer.Row(i), inner.Row(j)
			if !refAgree(outer.Schema(), ot, inner.Schema(), it) {
				continue
			}
			row := make(Tuple, out.Schema().Len())
			for k, a := range out.Schema().Attrs() {
				if p := outer.Schema().Pos(a); p >= 0 {
					row[k] = ot[p]
				} else {
					row[k] = it[inner.Schema().Pos(a)]
				}
			}
			out.Add(row)
		}
	}
	return out
}

// refSemiJoin keeps, in order, the rows of r that agree with some row
// of s (all of them when nothing is shared and s is nonempty).
func refSemiJoin(r, s *Relation) *Relation {
	out := New(r.Schema())
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			if refAgree(r.Schema(), r.Row(i), s.Schema(), s.Row(j)) {
				out.Add(r.Row(i))
				break
			}
		}
	}
	return out
}

// refDedup keeps the first occurrence of every distinct row, in order.
func refDedup(r *Relation) *Relation {
	out := New(r.Schema())
	for i := 0; i < r.Len(); i++ {
		dup := false
		for j := 0; j < out.Len() && !dup; j++ {
			dup = slices.Equal(out.Row(j), r.Row(i))
		}
		if !dup {
			out.Add(r.Row(i))
		}
	}
	return out
}

// refSelect keeps, in order, the rows whose value at column col is == v
// (> v when gt).
func refSelect(r *Relation, col int, v Value, gt bool) *Relation {
	out := New(r.Schema())
	for i := 0; i < r.Len(); i++ {
		if x := r.Row(i)[col]; (gt && x > v) || (!gt && x == v) {
			out.Add(r.Row(i))
		}
	}
	return out
}

// refCompare orders tuples on the given positions.
func refCompare(a, b Tuple, pos []int) int {
	for _, p := range pos {
		if a[p] != b[p] {
			if a[p] < b[p] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// refSortBy is the stable sort of the materialized tuples.
func refSortBy(r *Relation, pos []int) *Relation {
	ts := make([]Tuple, r.Len())
	for i := range ts {
		ts[i] = r.Row(i).Clone()
	}
	slices.SortStableFunc(ts, func(a, b Tuple) int { return refCompare(a, b, pos) })
	return FromTuples(r.Schema(), ts)
}

// refMergeRuns merges the sorted runs one row at a time: the smallest
// head wins, the earliest run on a tie.
func refMergeRuns(r *Relation, runLens []int, pos []int) *Relation {
	next := make([]int, len(runLens))
	end := make([]int, len(runLens))
	start := 0
	for i, n := range runLens {
		next[i], end[i] = start, start+n
		start += n
	}
	out := New(r.Schema())
	for {
		win := -1
		for i := range next {
			if next[i] < end[i] && (win < 0 || refCompare(r.Row(next[i]), r.Row(next[win]), pos) < 0) {
				win = i
			}
		}
		if win < 0 {
			return out
		}
		out.Add(r.Row(next[win]))
		next[win]++
	}
}
