// Package yannakakis implements the parallel Yannakakis algorithm, the
// classic output-sensitive baseline the paper discusses in Section 1.3:
// semi-join reduction over a join tree (removing all dangling tuples),
// followed by pairwise joins up the tree with hash partitioning. Its
// load is O(N/p + OUT/p) modulo join-key skew — output-optimal when
// OUT = O(p·N), but degenerating toward the AGM bound O(N^{ρ*}/p) in
// the worst case, which is exactly the gap the paper's worst-case
// optimal algorithm (internal/core) closes.
//
// Emitting results is free in the model, so the root's last join is
// counted, not built: its inputs are exchanged exactly as a join's
// would be, and each server reports |fragment ⋈ fragment| through
// relation.JoinCount. Every join that is built is exchanged afterwards.
//
// The two-round semi-join evaluation of the Section 1.3 example
// (R1(A) ⋈ R2(A,B) ⋈ R3(B) with linear load) is this algorithm on a
// two-level join tree.
package yannakakis

import (
	"fmt"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// Result reports one execution.
type Result struct {
	// Emitted is the number of join results (each emitted exactly once).
	Emitted int64
}

// Run executes parallel Yannakakis on the group. The query must be
// acyclic. Every tuple movement is charged: the scatter, the semi-join
// reduction, and the exchanges of the join up the tree, including those
// feeding each root's last join. That last join is emitted at the
// servers holding its partitions, which is free per the model, so it is
// counted per server instead of built; the components of a disconnected
// query multiply, saturating at math.MaxInt64.
func Run(g *mpc.Group, in *relation.Instance) (*Result, error) {
	q := in.Query
	tree, ok := hypergraph.GYO(q)
	if !ok {
		return nil, fmt.Errorf("yannakakis: %s is not acyclic", q.Name())
	}
	children := make([][]int, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		children[e] = tree.Children(e)
	}

	// Scatter and semi-join reduce (removes dangling tuples in O(1)
	// rounds with load O(N/p) + key-skew). ScatterDedup routes the
	// first occurrences straight into the free initial placement.
	rels := make([]*mpc.DistRelation, q.NumEdges())
	for e := range rels {
		rels[e] = g.ScatterDedup(in.Rel(e))
	}
	rels = primitives.SemiJoinReduceTree(g, rels, children, tree.Roots())

	// Join up the tree: each node joins the already-joined subtrees of
	// its children, partitioned hash joins on the parent-child common
	// attributes (never empty in a GYO tree; see pairExchange).
	var joinUp func(e int) *mpc.DistRelation
	joinUp = func(e int) *mpc.DistRelation {
		acc := rels[e]
		for _, c := range children[e] {
			acc = pairJoin(g, acc, joinUp(c))
		}
		return acc
	}
	// rootCount is joinUp at a root with the last join counted.
	rootCount := func(root int) int64 {
		acc, cs := rels[root], children[root]
		if len(cs) == 0 {
			return int64(acc.Len())
		}
		for _, c := range cs[:len(cs)-1] {
			acc = pairJoin(g, acc, joinUp(c))
		}
		return pairCount(g, acc, joinUp(cs[len(cs)-1]))
	}

	var emitted int64
	g.Span("join up", func() {
		// Roots of distinct components multiply: the Cartesian
		// combination count, never materialized across components.
		for i, root := range tree.Roots() {
			if n := rootCount(root); i == 0 {
				emitted = n
			} else {
				emitted = relation.MulSat(emitted, n)
			}
		}
	})
	return &Result{Emitted: emitted}, nil
}

// pairExchange hash partitions a and b on their common attributes, so
// that every result of a ⋈ b can be formed at one server, and returns
// them with that key. A GYO join tree links a child to its parent only
// through a shared attribute, and the accumulated sides keep their
// relations' attributes, so the key is never empty.
func pairExchange(g *mpc.Group, a, b *mpc.DistRelation) (ap, bp *mpc.DistRelation, common []int) {
	common = a.Schema.Common(b.Schema)
	return g.HashPartition(a, common), g.HashPartition(b, common), common
}

// pairJoin joins two distributed relations on their common attributes.
func pairJoin(g *mpc.Group, a, b *mpc.DistRelation) *mpc.DistRelation {
	ap, bp, common := pairExchange(g, a, b)
	out := mpc.Local(g, ap, relation.JoinStep(ap.Schema, bp.Schema, bp.Frags))
	// Joined rows keep the join-key values of their inputs, so the
	// output stays partitioned on common — the parent's pairJoin on the
	// same key (frequent in path/star trees) elides its exchange. The
	// semi-join phase has usually marked a and b already, turning ap/bp
	// into identity exchanges too.
	out.MarkPartitioned(common)
	return out
}

// pairCount is |a ⋈ b|: the exchanges of pairJoin, then each server
// counts the join of its two fragments instead of building it.
func pairCount(g *mpc.Group, a, b *mpc.DistRelation) int64 {
	ap, bp, _ := pairExchange(g, a, b)
	counts := make([]int64, len(ap.Frags))
	g.Fork(len(ap.Frags), func(i int) {
		counts[i] = ap.Frags[i].JoinCount(bp.Frags[i])
	})
	var total int64
	for _, n := range counts {
		total = relation.AddSat(total, n)
	}
	return total
}
