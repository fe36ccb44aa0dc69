package core

import (
	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
)

// Shape-cache entry points for the program's structural work. Each run
// compiles its recursion steps afresh (once per step, see program.go),
// and successive runs rebuild the same subqueries, so GYO reductions and
// integral covers are resolved through the compiled-plan cache:
// repeated — and isomorphic — shapes skip the search. Both wrappers fall
// back to the direct computation when the query exceeds the canonical
// bounds, and the cached results are byte-identical to the direct ones
// (internal/plan's sub-keying contract; FuzzShapeSlotsMatchDirect
// checks it), so cache state can never change a run's outcome.

// coverFor is IntegralCover through the shape cache.
func coverFor(q *hypergraph.Query) (hypergraph.EdgeSet, error) {
	h, ok := plan.For(q)
	if !ok {
		return IntegralCover(q)
	}
	if es, hit := h.Cover(); hit {
		return es, nil
	}
	es, err := IntegralCover(q)
	if err != nil {
		return es, err
	}
	h.SetCover(es)
	return es, nil
}
