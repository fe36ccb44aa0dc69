// Package core implements the paper's primary contribution: the generic
// multi-round MPC algorithm for α-acyclic joins (Section 3) and its
// worst-case optimal run (Section 4), achieving load O(N/p^{1/ρ*}) in
// O(1) rounds (Theorem 5) — down from the one-round O(N/p^{1/ψ*}).
//
// The algorithm recursively decomposes the join over its join tree:
//
//   - Case I (single tree): pick an attribute x and a relation set S^x
//     (a single leaf in the conservative run of Theorem 1; a root-to-
//     leaf path of non-cover nodes in the optimal run of Section 4),
//     split dom(x) into heavy values (degree > L) and packed light
//     groups, and recurse: heavy values spawn residual queries Q_x with
//     σ_{x=a} instances; light groups broadcast their σ tuples and
//     recurse on the query minus S^x.
//   - Case II (forest): components are combined as a Cartesian product
//     on a hypercube of server groups.
//
// Every data movement runs on the internal/mpc simulator and is charged;
// sub-join statistics are computed with the distributed counting of
// internal/primitives (see DESIGN.md for the [16] substitution).
package core

import (
	"fmt"

	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

// IntegralCover returns an integral optimal edge cover of an acyclic
// query, following the constructive proof of Lemma A.2: walk the GYO
// reduction, assigning weight 1 to a relation when it holds an attribute
// no other remaining relation has, and weight 0 to relations absorbed by
// a container. The result's size is exactly ρ*.
func IntegralCover(q *hypergraph.Query) (hypergraph.EdgeSet, error) {
	if !q.IsAcyclic() {
		return hypergraph.EdgeSet{}, fmt.Errorf("core: %s is not acyclic", q.Name())
	}
	n := q.NumEdges()
	vars := make([]hypergraph.VarSet, n)
	for i := 0; i < n; i++ {
		vars[i] = q.EdgeVars(i).Clone()
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	var cover hypergraph.EdgeSet

	attrHolders := func(a int) []int {
		var out []int
		for i := 0; i < n; i++ {
			if alive[i] && vars[i].Contains(a) {
				out = append(out, i)
			}
		}
		return out
	}

	for remaining > 0 {
		progressed := false
		// Rule (1) of Lemma A.2: an attribute unique to e forces e into
		// the cover; remove all of e's attributes from the query.
		for _, a := range q.AllVars().Attrs() {
			hs := attrHolders(a)
			if len(hs) != 1 {
				continue
			}
			e := hs[0]
			if !vars[e].Contains(a) {
				continue
			}
			cover.Add(e)
			dropped := vars[e]
			for i := 0; i < n; i++ {
				if alive[i] {
					vars[i] = vars[i].Subtract(dropped)
				}
			}
			alive[e] = false
			remaining--
			progressed = true
		}
		// Emptied relations leave with weight 0.
		for i := 0; i < n; i++ {
			if alive[i] && vars[i].IsEmpty() {
				alive[i] = false
				remaining--
				progressed = true
			}
		}
		// Rule (2): a contained relation leaves with weight 0.
		for i := 0; i < n && remaining > 0; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				if vars[i].SubsetOf(vars[j]) {
					alive[i] = false
					remaining--
					progressed = true
					break
				}
			}
		}
		if !progressed {
			return hypergraph.EdgeSet{}, fmt.Errorf("core: GYO stalled on %s", q.Name())
		}
	}
	return cover, nil
}

// SubjoinSize computes |⊗(T, R, S)| (Definition 3.1): the product of the
// join sizes of the maximal connected components of S on the join tree
// T. It is the sequential oracle used to state cost formulas and choose
// L; the executor's in-band statistics use the charged distributed
// counterpart in internal/primitives.
func SubjoinSize(in *relation.Instance, tree *hypergraph.JoinTree, s hypergraph.EdgeSet) int64 {
	if s.IsEmpty() {
		return 1
	}
	total := int64(1)
	for _, comp := range tree.ConnectedComponentsOn(s) {
		sub := in.Query.KeepEdges(comp)
		subIn := relation.NewInstance(sub)
		for i, e := range comp.Edges() {
			subIn.Relations[i] = in.Rel(e)
		}
		total = relation.MulSat(total, subIn.JoinSize())
		if total == 0 {
			return 0
		}
	}
	return total
}
