// Package yannakakis implements the parallel Yannakakis algorithm, the
// classic output-sensitive baseline the paper discusses in Section 1.3:
// semi-join reduction over a join tree (removing all dangling tuples),
// followed by pairwise joins up the tree with hash partitioning. Its
// load is O(N/p + OUT/p) modulo join-key skew — output-optimal when
// OUT = O(p·N), but degenerating toward the AGM bound O(N^{ρ*}/p) in
// the worst case, which is exactly the gap the paper's worst-case
// optimal algorithm (internal/core) closes.
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
// acyclic. Join results are emitted at the servers holding the final
// root-relation partitions; emission itself is free per the model, but
// every intermediate tuple movement is charged.
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
	// its children. Partitioned hash joins on the parent-child common
	// attributes; a Cartesian child (no common attributes) is handled
	// by broadcasting the smaller side.
	var joinUp func(e int) *mpc.DistRelation
	joinUp = func(e int) *mpc.DistRelation {
		acc := rels[e]
		for _, c := range children[e] {
			sub := joinUp(c)
			acc = pairJoin(g, acc, sub)
		}
		return acc
	}

	var emitted int64
	g.Span("join up", func() {
		for _, root := range tree.Roots() {
			full := joinUp(root)
			// Roots of distinct components multiply; emit the Cartesian
			// combination count without materializing across components.
			if emitted == 0 {
				emitted = int64(full.Len())
			} else {
				emitted *= int64(full.Len())
			}
		}
	})
	return &Result{Emitted: emitted}, nil
}

// pairJoin joins two distributed relations on their common attributes.
func pairJoin(g *mpc.Group, a, b *mpc.DistRelation) *mpc.DistRelation {
	common := a.Schema.Common(b.Schema)
	if len(common) == 0 {
		// Broadcast the smaller side, join locally.
		small, large := a, b
		if b.Len() < a.Len() {
			small, large = b, a
		}
		bs := g.Broadcast(small)
		out := mpc.NewDist(a.Schema.Union(b.Schema), g.Size())
		g.Fork(len(large.Frags), func(i int) {
			out.Frags[i] = large.Frags[i].Join(bs.Frags[i])
		})
		return out
	}
	ap := g.HashPartition(a, common)
	bp := g.HashPartition(b, common)
	out := mpc.NewDist(a.Schema.Union(b.Schema), g.Size())
	g.Fork(len(ap.Frags), func(i int) {
		out.Frags[i] = ap.Frags[i].JoinPar(bp.Frags[i], g)
	})
	// Joined rows keep the join-key values of their inputs, so the
	// output stays partitioned on common — the parent's pairJoin on the
	// same key (frequent in path/star trees) elides its exchange. The
	// semi-join phase has usually marked a and b already, turning ap/bp
	// into identity exchanges too.
	out.MarkPartitioned(common)
	return out
}
