package relation

// MergeJoin computes the natural join r ⋈ s with a sort-merge strategy:
// both inputs are ordered on the shared attributes (via stable
// row-index permutations — the arenas are not touched) and matching key
// groups are combined. It is semantically identical to Join (the hash
// join) — the property tests enforce the equivalence — and is the
// algorithm of choice once inputs arrive range-partitioned from the
// distributed sort primitive. The merge loop gallops (exponential probe
// + binary search) across non-matching stretches and key groups, so
// joins with long disjoint key ranges cost O(log) per skipped range
// instead of O(n); emission order is unchanged.
func (r *Relation) MergeJoin(s *Relation) *Relation {
	common := r.schema.Common(s.schema)
	if len(common) == 0 {
		return r.Join(s) // Cartesian; nothing to merge on
	}
	outSchema := r.schema.Union(s.schema)
	out := New(outSchema)

	rPos := positionsOf(r.schema, common)
	sPos := positionsOf(s.schema, common)

	rp := sortedPerm(r, rPos)
	sp := sortedPerm(s, sPos)

	rOut := outPositions(r.schema, outSchema)
	sOut := outPositions(s.schema, outSchema)
	scratch := make(Tuple, outSchema.Len())
	emit := func(a, b Tuple) {
		for i, p := range rOut {
			scratch[p] = a[i]
		}
		for i, p := range sOut {
			scratch[p] = b[i]
		}
		out.Add(scratch)
	}

	i, j := 0, 0
	for i < len(rp) && j < len(sp) {
		c := compareKeys(r.Row(int(rp[i])), rPos, s.Row(int(sp[j])), sPos)
		switch {
		case c < 0:
			// Skip r rows below s's key in one gallop.
			i = gallopPerm(r, rp, rPos, i+1, s.Row(int(sp[j])), sPos, false)
		case c > 0:
			j = gallopPerm(s, sp, sPos, j+1, r.Row(int(rp[i])), rPos, false)
		default:
			// Gallop to both key-group ends and emit the product.
			i2 := gallopPerm(r, rp, rPos, i+1, r.Row(int(rp[i])), rPos, true)
			j2 := gallopPerm(s, sp, sPos, j+1, s.Row(int(sp[j])), sPos, true)
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					emit(r.Row(int(rp[a])), s.Row(int(sp[b])))
				}
			}
			i, j = i2, j2
		}
	}
	return out
}

// gallopPerm returns the first index k in [from, len(perm)) whose row
// compares >= the key of t at tPos (> when past is true), assuming
// perm orders r on pos. Exponential probe then binary search.
func gallopPerm(r *Relation, perm []int32, pos []int, from int, t Tuple, tPos []int, past bool) int {
	bound := 0
	if past {
		bound = 1
	}
	above := func(k int) bool {
		return compareKeys(r.Row(int(perm[k])), pos, t, tPos) >= bound
	}
	lo, hi := from, len(perm)
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

// sortedPerm returns the row indices of r ordered stably by the given
// positions (equal keys keep input order, matching the historical
// sort.SliceStable over materialized tuples): sortPerm's permutation,
// or the identity when it finds the rows already in order.
func sortedPerm(r *Relation, pos []int) []int32 {
	if perm := r.sortPerm(pos); perm != nil {
		return perm
	}
	return identityPerm(r.rows)
}

func positionsOf(s Schema, attrs []int) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i] = s.Pos(a)
	}
	return out
}

// outPositions maps each position of src to its position in dst.
func outPositions(src, dst Schema) []int {
	out := make([]int, src.Len())
	for i, a := range src.Attrs() {
		out[i] = dst.Pos(a)
	}
	return out
}

// compareKeys compares a's key at aPos with b's key at bPos.
func compareKeys(a Tuple, aPos []int, b Tuple, bPos []int) int {
	for k := range aPos {
		av, bv := a[aPos[k]], b[bPos[k]]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}
