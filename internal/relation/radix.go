package relation

import (
	"slices"
	"sync/atomic"
)

// LSD radix sort and galloping merge kernels over int64 arena columns.
//
// radixOrder is the workhorse behind Sort/SortBy/MergeJoin on large
// relations: a least-significant-digit radix sort of the row indices,
// one key column at a time from last to first, eight bits per pass,
// written over row blocks like the kernels of parallel.go. Every
// counting pass is stable, so the whole permutation is stable —
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

// sortedRange reports whether every row of [lo, hi) is ≥ its
// predecessor (row lo's is row lo−1) on the given positions.
func (r *Relation) sortedRange(pos []int, lo, hi int) bool {
	for i := max(lo, 1); i < hi; i++ {
		if r.compareRowsAt(i-1, i, pos) > 0 {
			return false
		}
	}
	return true
}

// sortPerm returns the sorted row permutation of the resident arena on
// the given positions over the blocks of cuts (nil: one block, inline),
// or nil when the rows are already in order — one linear scan, common
// for fragments returned by a cached re-exchange. Large inputs take the
// stable radix kernel; its permutation is identical to
// slices.SortStableFunc's, and without stable the caller compares whole
// rows, so tie rows are equal and stability is indistinguishable.
func (r *Relation) sortPerm(pos []int, stable bool, f Forker, cuts []int) []int32 {
	if cuts == nil {
		if r.sortedRange(pos, 0, r.rows) {
			return nil
		}
	} else {
		var unsorted atomic.Bool
		forkBlocks(f, cuts, func(_, lo, hi int) {
			if !r.sortedRange(pos, lo, hi) {
				unsorted.Store(true)
			}
		})
		if !unsorted.Load() {
			return nil
		}
	}
	if r.rows >= radixMinRows {
		return radixOrder(r.data, r.rows, r.arity, pos, f, cuts)
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

// radixCount is the counting pass of one block: the histogram of the
// digit at shift over the keys its slice of the permutation points at.
func radixCount(cnt *[256]int, keys []uint64, perm []int32, shift uint) {
	*cnt = [256]int{}
	for _, pi := range perm {
		cnt[byte(keys[pi]>>shift)]++
	}
}

// radixOffsets turns the per-block histograms into write cursors,
// digit-major then block-major: exactly the positions one stable
// counting pass over the whole permutation assigns, since concatenating
// the blocks in order is that scan's order.
func radixOffsets(cnts [][256]int) {
	sum := 0
	for d := 0; d < 256; d++ {
		for b := range cnts {
			n := cnts[b][d]
			cnts[b][d] = sum
			sum += n
		}
	}
}

// radixScatter is the placement pass of one block, through its own
// cursors.
func radixScatter(off *[256]int, keys []uint64, perm, tmp []int32, shift uint) {
	for _, pi := range perm {
		d := byte(keys[pi] >> shift)
		tmp[off[d]] = pi
		off[d]++
	}
}

// radixOrder returns the stable sorted row permutation of the arena on
// the given positions, counting and placing block by block over f (nil
// cuts: one block, inline). rows must be >= 2.
func radixOrder(data []Value, rows, arity int, pos []int, f Forker, cuts []int) []int32 {
	perm := identityPerm(rows)
	tmp := make([]int32, rows)
	keys := make([]uint64, rows)
	// The blocks' histograms; one block keeps its own on the stack.
	cnts := make([][256]int, max(len(cuts)-1, 0))
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
			if cuts == nil {
				var cnt [1][256]int
				radixCount(&cnt[0], keys, perm, shift)
				radixOffsets(cnt[:])
				radixScatter(&cnt[0], keys, perm, tmp, shift)
			} else {
				src, dst := perm, tmp
				forkBlocks(f, cuts, func(b, lo, hi int) { radixCount(&cnts[b], keys, src[lo:hi], shift) })
				radixOffsets(cnts)
				forkBlocks(f, cuts, func(b, lo, hi int) { radixScatter(&cnts[b], keys, src[lo:hi], dst, shift) })
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
	r.ensureResident() // galloping needs random access; page a parked input in
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
