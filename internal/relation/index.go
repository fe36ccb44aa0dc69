package relation

import (
	"sync/atomic"

	"coverpack/internal/hashtab"
)

// Borrowed key tables.
//
// Every keyed kernel — SemiJoin, Join, JoinCount, Degrees and the
// first-row list of Dedup — builds its hashtab table for the length of
// one call and releases it to the hashtab pools before it returns, so
// no table outlives its call and a sweep's tables come from the pools.
// A table retained on the relation would rarely be probed again: the
// build side of a semi-join is almost never the build side of a later
// keyed operator on the same key.
//
// The one thing a relation keeps is Dedup's first-row list, dropped by
// every mutator (Add, AddValues, Append, Sort, SortBy). The inputs of a
// run are deduplicated as they are scattered (mpc.Group.ScatterDedup),
// and an input that outlives runs is then listed once, however many
// runs scatter it. The list is published through an atomic pointer, so
// runs sharing an input stay race-free. Writes through Row views bypass
// the mutators, so they are only permitted on relations that have never
// been shared or listed.

// invalidate drops the retained FirstRows list. Mutators call it before
// changing the arena.
func (r *Relation) invalidate() {
	if r.first.Load() != nil {
		r.first.Store(nil)
	}
}

// indexCachingOff is inverted so the zero value means "caching on".
var indexCachingOff atomic.Bool

// SetIndexCaching toggles the retention of FirstRows lists process-wide
// (default on). Results are identical either way — the switch exists
// for differential tests and cache-off benchmarking.
func SetIndexCaching(on bool) { indexCachingOff.Store(!on) }

// IndexCachingEnabled reports whether FirstRows lists are retained.
func IndexCachingEnabled() bool { return !indexCachingOff.Load() }

// firstRows lists the first occurrence of every distinct row, ascending,
// through a borrowed full-row table.
func (r *Relation) firstRows() []int32 {
	pos := identityPositions(r.arity)
	seen := hashtab.New(r.arity, r.rows)
	first := make([]int32, 0, r.rows)
	for i := 0; i < r.rows; i++ {
		if _, found := seen.Insert(r.Row(i), pos); !found {
			first = append(first, int32(i))
		}
	}
	seen.Release()
	return first
}

// keyChains is a hash index of a join's build side on the join key,
// borrowed for one Join call: table numbers the distinct keys,
// heads[e] is the first row holding key e, and next[i] is the next row
// after row i holding row i's key (−1 ends a chain), so a chain lists
// its rows in row order.
type keyChains struct {
	table       *hashtab.Table
	heads, next []Value
}

// chainsOn builds the index of r on pos in tab, which it initializes,
// and scratch, which holds at least 2·r.Len() values. The rows are
// inserted last to first, so each row is pushed on the front of its
// chain and no tail list is needed.
func chainsOn(tab *hashtab.Table, r *Relation, pos []int, scratch []Value) keyChains {
	tab.Init(len(pos), r.rows)
	ix := keyChains{
		table: tab,
		heads: scratch[r.rows : r.rows : 2*r.rows],
		next:  scratch[:r.rows],
	}
	for i := r.rows - 1; i >= 0; i-- {
		e, found := ix.table.Insert(r.Row(i), pos)
		if !found {
			ix.heads = append(ix.heads, -1)
		}
		ix.next[i] = ix.heads[e]
		ix.heads[e] = Value(i)
	}
	return ix
}
