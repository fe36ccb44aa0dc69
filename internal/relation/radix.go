package relation

import "slices"

// LSD radix sort and galloping merge kernels over int64 arena columns.
//
// radixOrder is the workhorse behind Sort/SortBy/MergeJoin on large
// relations: a least-significant-digit radix sort of the row indices,
// one key column at a time from last to first, eight bits per pass.
// Every counting pass is stable, so the whole permutation is stable —
// byte-for-byte the permutation slices.SortStableFunc would produce —
// which is what keeps golden outputs unchanged when the kernel kicks
// in. Signed order falls out of flipping the sign bit before bucketing
// (two's-complement int64 order equals unsigned order of v ^ 1<<63).
//
// MergeRuns is the k-way complement: it merges consecutive sorted runs
// of one relation into fully sorted order, stable across runs (ties go
// to the earlier run), galloping through long single-run stretches.
// A stable merge of sorted runs equals a stable sort of their
// concatenation, so it can replace a sort wherever the input is known
// to be a concatenation of sorted runs — e.g. the gathered splitter
// sample in internal/primitives.Sort.

// radixMinRows is the row count at which radixOrder beats the
// comparison sort; below it sortPerm keeps the slices.SortFunc path
// (fewer fixed costs, no 64-bit key buffer).
const radixMinRows = 128

// sorted reports whether every row is ≥ its predecessor on the given
// positions.
func (r *Relation) sorted(pos []int) bool {
	for i := 1; i < r.rows; i++ {
		if r.compareRowsAt(i-1, i, pos) > 0 {
			return false
		}
	}
	return true
}

// sortPerm returns the sorted row permutation of the resident arena on
// the given positions, or nil when the rows are already in order — one
// linear scan, common for fragments an exchange left in key order.
// Large inputs take the stable radix kernel; its permutation is
// identical to slices.SortStableFunc's, and without stable the caller
// compares whole rows, so tie rows are equal and stability is
// indistinguishable.
func (r *Relation) sortPerm(pos []int, stable bool) []int32 {
	if r.sorted(pos) {
		return nil
	}
	if r.rows >= radixMinRows {
		return radixOrder(r.data, r.rows, r.arity, pos)
	}
	perm := identityPerm(r.rows)
	cmp := func(a, b int32) int { return r.compareRowsAt(int(a), int(b), pos) }
	if stable {
		slices.SortStableFunc(perm, cmp)
	} else {
		slices.SortFunc(perm, cmp)
	}
	return perm
}

// radixOrder returns the stable sorted row permutation of the arena on
// the given positions: per key column, last to first, one counting pass
// over the permutation, the histogram turned into write cursors, and one
// placement pass, per byte of the column. rows must be >= 2.
func radixOrder(data []Value, rows, arity int, pos []int) []int32 {
	perm := identityPerm(rows)
	tmp := make([]int32, rows)
	keys := make([]uint64, rows)
	for c := len(pos) - 1; c >= 0; c-- {
		p := pos[c]
		// differ has a bit set wherever two keys of the column differ: a
		// digit it leaves clear is uniform (common in the high bytes of
		// small values), permutes nothing and is skipped.
		first := uint64(data[p]) ^ (1 << 63)
		differ := uint64(0)
		for i := range keys {
			keys[i] = uint64(data[i*arity+p]) ^ (1 << 63)
			differ |= keys[i] ^ first
		}
		for shift := uint(0); shift < 64; shift += 8 {
			if byte(differ>>shift) == 0 {
				continue
			}
			var cnt [256]int
			for _, pi := range perm {
				cnt[byte(keys[pi]>>shift)]++
			}
			sum := 0
			for d, n := range cnt {
				cnt[d] = sum
				sum += n
			}
			for _, pi := range perm {
				d := byte(keys[pi] >> shift)
				tmp[cnt[d]] = pi
				cnt[d]++
			}
			perm, tmp = tmp, perm
		}
	}
	return perm
}

// compareRowsAt compares rows i and j of r on the given positions.
func (r *Relation) compareRowsAt(i, j int, pos []int) int {
	a := r.data[i*r.arity:]
	b := r.data[j*r.arity:]
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

// gallopRows returns the first index k in [lo, hi) whose row compares
// > row limit on pos (>= when strict), by exponential probing then
// binary search. Rows in [lo, hi) must be sorted on pos.
func (r *Relation) gallopRows(lo, hi, limit int, pos []int, strict bool) int {
	bound := 1
	if strict {
		bound = 0
	}
	above := func(k int) bool { return r.compareRowsAt(k, limit, pos) >= bound }
	if lo >= hi || above(lo) {
		return lo
	}
	step := 1
	for lo+step < hi && !above(lo+step) {
		lo += step
		step <<= 1
	}
	if lo+step < hi {
		hi = lo + step
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if above(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// MergeRuns merges consecutive sorted runs of r into one relation
// sorted on the given schema positions: run i spans rows
// [sum(runLens[:i]), sum(runLens[:i+1])) and must be internally sorted
// on pos. The merge is stable across runs — ties emit earlier runs
// first — so the output equals r.Clone() followed by a stable sort on
// pos, at merge cost instead of sort cost.
func (r *Relation) MergeRuns(runLens []int, pos []int) *Relation {
	type run struct{ next, end int }
	runs := make([]run, 0, len(runLens))
	start := 0
	for _, n := range runLens {
		if n < 0 {
			panic("relation: MergeRuns negative run length")
		}
		if n > 0 {
			runs = append(runs, run{start, start + n})
		}
		start += n
	}
	if start != r.rows {
		panic("relation: MergeRuns run lengths do not cover the relation")
	}
	if len(runs) <= 1 {
		return r.Clone()
	}
	data := make([]Value, len(r.data))
	o := 0
	emit := func(lo, hi int) { o += copy(data[o:], r.data[lo*r.arity:hi*r.arity]) }
	for len(runs) > 1 {
		// Winner: smallest head, ties to the earliest run (stability).
		win := 0
		for i := 1; i < len(runs); i++ {
			if r.compareRowsAt(runs[i].next, runs[win].next, pos) < 0 {
				win = i
			}
		}
		// Runner-up head bounds how far the winner can emit in one gallop.
		oth := -1
		for i := range runs {
			if i == win {
				continue
			}
			if oth < 0 || r.compareRowsAt(runs[i].next, runs[oth].next, pos) < 0 {
				oth = i
			}
		}
		// The winner emits rows <= the runner-up head when it precedes the
		// runner-up (its equal rows come first), rows < it otherwise.
		n := r.gallopRows(runs[win].next, runs[win].end, runs[oth].next, pos, win > oth)
		emit(runs[win].next, n)
		runs[win].next = n
		if n == runs[win].end {
			runs = append(runs[:win], runs[win+1:]...)
		}
	}
	emit(runs[0].next, runs[0].end)
	return FromData(r.schema, data, r.rows)
}
