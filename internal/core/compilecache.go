package core

import (
	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
)

// Shape-cache entry points for the program's structural work. Each run
// compiles its recursion steps afresh (once per step, see program.go),
// and successive runs rebuild the same subqueries, so GYO reductions and
// integral covers are resolved through the compiled-plan cache: a
// repeated shape skips the search. The cache keys on the query's own
// edge structure, so a served result is the direct one
// (FuzzShapeSlotsMatchDirect checks it), and cache state can never
// change a run's outcome.

// coverFor is IntegralCover through the shape cache. The returned set is
// shared with the cache and must not be mutated.
func coverFor(q *hypergraph.Query) (hypergraph.EdgeSet, error) {
	h, _ := plan.For(q)
	if v, hit := h.Invariant("cover"); hit {
		return v.(hypergraph.EdgeSet), nil
	}
	es, err := IntegralCover(q)
	if err != nil {
		return es, err
	}
	h.SetInvariant("cover", es)
	return es, nil
}
