package core

import (
	"math"

	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
	"coverpack/internal/relation"
)

// choice is the Case I decision: the attribute x to decompose on and the
// ordered relation set S^x (original edge ids, leaf first). Every
// relation in S^x contains x (S^x ⊆ E_x), and S^x is a path on the join
// tree starting at a leaf, as Section 4.1 requires; the conservative run
// uses the one-node path {e1}.
type choice struct {
	x  int
	sx []int
}

// choose picks (x, S^x) on the current subquery tree. tree indexes the
// subquery; origOf maps back to original edge ids, by which vars is
// indexed. Run rejects any other strategy before the first step.
func (ex *executor) choose(tree *hypergraph.JoinTree, origOf []int, vars []hypergraph.VarSet) choice {
	if ex.strat == PathOptimal {
		return choosePathOptimal(tree, origOf, vars)
	}
	return chooseConservative(tree, origOf, vars)
}

// chooseConservative picks the lowest-index leaf e1 with its parent e0
// and the lowest shared attribute x ∈ e1 ∩ e0; S^x = {e1} (the Theorem 1
// run analyzed in Section 3.2).
func chooseConservative(tree *hypergraph.JoinTree, origOf []int, vars []hypergraph.VarSet) choice {
	for _, leaf := range tree.Leaves() {
		p := tree.Parent[leaf]
		if p < 0 {
			continue
		}
		shared := vars[origOf[leaf]].Intersect(vars[origOf[p]])
		if shared.IsEmpty() {
			continue
		}
		return choice{x: shared.Attrs()[0], sx: []int{origOf[leaf]}}
	}
	panic("core: connected reduced subquery with no shareable leaf (bug)")
}

// choosePathOptimal implements the Section 4 run: starting from a leaf
// of the integral optimal edge cover, extend the path of tree nodes that
// all contain a common "first attribute" x as far as possible; S^x is
// that path. Peeling whole paths is what keeps non-cover interior nodes
// out of the server-count formula (the fix Example 3.4 calls for). Among
// all (leaf, attribute) pairs the longest path wins; ties break toward
// lower edge index then lower attribute id for determinism.
func choosePathOptimal(tree *hypergraph.JoinTree, origOf []int, vars []hypergraph.VarSet) choice {
	qc := tree.Query
	cover, err := coverFor(qc)
	if err != nil {
		// The subquery is acyclic by construction; fall back to the
		// conservative choice if the cover computation ever fails.
		return chooseConservative(tree, origOf, vars)
	}
	best := choice{}
	bestLen := -1
	for _, leaf := range tree.Leaves() {
		if !cover.Contains(leaf) || tree.Parent[leaf] < 0 {
			continue
		}
		for _, a := range vars[origOf[leaf]].Attrs() {
			// Extend upward while the next node still contains a.
			path := []int{leaf}
			cur := leaf
			for {
				p := tree.Parent[cur]
				if p < 0 || !vars[origOf[p]].Contains(a) {
					break
				}
				path = append(path, p)
				cur = p
			}
			// The light residual removes the path's relations, so the
			// path must leave an α-acyclic residual — this is what the
			// paper's twig conditions guarantee structurally; here the
			// path is shortened from the top until the residual stays
			// acyclic (a one-node path, plain leaf removal, always is).
			for len(path) >= 2 && !residualAcyclic(tree.Query, tree, origOf, vars, path) {
				path = path[:len(path)-1]
			}
			if len(path) < 2 {
				continue // x must be shared with the parent
			}
			if len(path) > bestLen ||
				(len(path) == bestLen && (origOf[leaf] < best.sx[0] ||
					(origOf[leaf] == best.sx[0] && a < best.x))) {
				orig := make([]int, len(path))
				for i, e := range path {
					orig[i] = origOf[e]
				}
				best = choice{x: a, sx: orig}
				bestLen = len(path)
			}
		}
	}
	if bestLen < 0 {
		return chooseConservative(tree, origOf, vars)
	}
	return best
}

// residualAcyclic reports whether removing the path's relations leaves
// an α-acyclic subquery.
func residualAcyclic(qc *hypergraph.Query, tree *hypergraph.JoinTree, origOf []int,
	vars []hypergraph.VarSet, path []int) bool {
	onPath := make(map[int]bool, len(path))
	for _, e := range path {
		onPath[e] = true
	}
	rest := hypergraph.NewQuery("residual-check")
	for i := range origOf {
		if !onPath[i] {
			rest.AddEdgeVars(qc.Edge(i).Name, vars[origOf[i]])
		}
	}
	if rest.NumEdges() == 0 {
		return true
	}
	return rest.IsAcyclic()
}

// ChooseL selects the load threshold for p servers. The conservative
// value follows Theorem 2,
//
//	L = max_{S ⊆ E} ( |⊗(T, R, S)| / p )^{1/|S|},
//
// and the path-optimal value follows Section 4.3's product form over the
// integral cover C (which collapses to N/p^{1/ρ*} when all relations
// have N tuples, Theorem 5):
//
//	L = max_{S ⊆ C ∪ singletons} ( Π_{e∈S} |R(e)| / p )^{1/|S|}.
func ChooseL(in *relation.Instance, p int, strat Strategy) int {
	q := in.Query
	tree, ok := plan.GYO(q)
	if !ok {
		return 0
	}
	best := 1.0
	consider := func(sz float64, k int) {
		if sz <= 0 {
			return
		}
		v := math.Pow(sz/float64(p), 1/float64(k))
		if v > best {
			best = v
		}
	}
	switch strat {
	case Conservative:
		for _, s := range hypergraph.SubsetsOf(q.AllEdges().Edges()) {
			if s.IsEmpty() {
				continue
			}
			consider(float64(SubjoinSize(in, tree, s)), s.Len())
		}
	case PathOptimal:
		cover, err := coverFor(q)
		if err != nil {
			return 0
		}
		for _, s := range hypergraph.SubsetsOf(cover.Edges()) {
			if s.IsEmpty() {
				continue
			}
			prod := 1.0
			for _, e := range s.Edges() {
				prod *= float64(in.Rel(e).Len())
			}
			consider(prod, s.Len())
		}
		for e := 0; e < q.NumEdges(); e++ {
			consider(float64(in.Rel(e).Len()), 1)
		}
	}
	return int(math.Ceil(best))
}
