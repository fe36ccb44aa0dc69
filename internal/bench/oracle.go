package bench

// The reference evaluator. It shares no code with the engine: it sees
// relations only as [][]int64 with one attribute id per column, and
// joins them by nested loops.

// NestedLoopCount returns the number of results of the natural join of
// the relations (set semantics: duplicate rows count once). attrs[e][j]
// is the attribute id of column j of relation e.
func NestedLoopCount(attrs [][]int, rows [][][]int64) int64 {
	if len(attrs) == 0 {
		return 1
	}
	rows = dedupAll(rows)
	order := joinOrder(attrs)
	bound := map[int]int64{}
	var rec func(k int) int64
	rec = func(k int) int64 {
		if k == len(order) {
			return 1
		}
		e := order[k]
		var n int64
		for _, row := range rows[e] {
			var fresh []int
			ok := true
			for j, a := range attrs[e] {
				if v, has := bound[a]; has {
					if v != row[j] {
						ok = false
						break
					}
				} else {
					bound[a] = row[j]
					fresh = append(fresh, a)
				}
			}
			if ok {
				n += rec(k + 1)
			}
			for _, a := range fresh {
				delete(bound, a)
			}
		}
		return n
	}
	return rec(0)
}

// joinOrder lists the relations so that each one shares as many
// attributes as possible with those before it; the loops then prune
// early instead of enumerating a Cartesian product.
func joinOrder(attrs [][]int) []int {
	used := make([]bool, len(attrs))
	seen := map[int]bool{}
	var order []int
	for range attrs {
		best, bestShared := -1, -1
		for e, as := range attrs {
			if used[e] {
				continue
			}
			shared := 0
			for _, a := range as {
				if seen[a] {
					shared++
				}
			}
			if shared > bestShared {
				best, bestShared = e, shared
			}
		}
		used[best] = true
		order = append(order, best)
		for _, a := range attrs[best] {
			seen[a] = true
		}
	}
	return order
}

func dedupAll(rows [][][]int64) [][][]int64 {
	out := make([][][]int64, len(rows))
	for e, rs := range rows {
		for _, r := range rs {
			dup := false
			for _, o := range out[e] {
				if equalRow(r, o) {
					dup = true
					break
				}
			}
			if !dup {
				out[e] = append(out[e], r)
			}
		}
	}
	return out
}

func equalRow(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DomainProduct returns the product over all attributes of the number
// of distinct values the attribute takes anywhere in the instance: the
// join size when every relation is the full product of its attribute
// domains (AGMWorstCase).
func DomainProduct(attrs [][]int, rows [][][]int64) int64 {
	doms := map[int]map[int64]bool{}
	for e, rs := range rows {
		for _, r := range rs {
			for j, a := range attrs[e] {
				if doms[a] == nil {
					doms[a] = map[int64]bool{}
				}
				doms[a][r[j]] = true
			}
		}
	}
	prod := int64(1)
	for _, d := range doms {
		prod *= int64(len(d))
	}
	return prod
}
