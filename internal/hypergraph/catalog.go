package hypergraph

import "fmt"

// This file constructs the queries the paper uses as running examples,
// so that every experiment in EXPERIMENTS.md can name its query by a
// catalog constructor.

// SquareJoin returns Q_□ from Figure 2 (the open question of [18]):
//
//	R1(A,B,C) ⋈ R2(D,E,F) ⋈ R3(A,D) ⋈ R4(B,E) ⋈ R5(C,F)
//
// with ρ* = 2 ({R1,R2}) and τ* = 3 ({R3,R4,R5}).
func SquareJoin() *Query {
	return MustParse("square", "R1(A,B,C) R2(D,E,F) R3(A,D) R4(B,E) R5(C,F)")
}

// SpokeJoin generalizes Q_□ to k spokes: two k-ary hubs connected by k
// binary spokes. SpokeJoin(3) is Q_□ up to attribute names. It is the
// family behind Figure 7's edge-packing-provable examples, with ρ* = 2
// and τ* = k.
func SpokeJoin(k int) *Query {
	if k < 2 {
		panic(fmt.Sprintf("hypergraph: SpokeJoin needs k >= 2, got %d", k))
	}
	q := NewQuery(fmt.Sprintf("spoke-%d", k))
	hub1 := make([]string, k)
	hub2 := make([]string, k)
	for i := 0; i < k; i++ {
		hub1[i] = fmt.Sprintf("A%d", i+1)
		hub2[i] = fmt.Sprintf("D%d", i+1)
	}
	q.AddEdge("R1", hub1...)
	q.AddEdge("R2", hub2...)
	for i := 0; i < k; i++ {
		q.AddEdge(fmt.Sprintf("S%d", i+1), hub1[i], hub2[i])
	}
	return q
}

// PathJoin returns the path (line) join of k binary relations:
//
//	R1(X1,X2) ⋈ R2(X2,X3) ⋈ ... ⋈ Rk(Xk,Xk+1)
//
// The line-3 query of Section 1.3 is PathJoin(3). ρ* = ⌈k/2⌉ and the
// quasi-packing number grows with k, which is the ψ*−ρ* gap the paper
// highlights for path joins.
func PathJoin(k int) *Query {
	if k < 1 {
		panic(fmt.Sprintf("hypergraph: PathJoin needs k >= 1, got %d", k))
	}
	q := NewQuery(fmt.Sprintf("path-%d", k))
	for i := 1; i <= k; i++ {
		q.AddEdge(fmt.Sprintf("R%d", i), fmt.Sprintf("X%d", i), fmt.Sprintf("X%d", i+1))
	}
	return q
}

// CycleJoin returns the cycle join of k binary relations:
//
//	R1(X1,X2) ⋈ ... ⋈ Rk(Xk,X1)
//
// CycleJoin(3) is the triangle query. Cycle joins are degree-two;
// odd-length cycles have half-integral ρ* = τ* = k/2, even-length have
// integral ρ* = τ* = k/2.
func CycleJoin(k int) *Query {
	if k < 3 {
		panic(fmt.Sprintf("hypergraph: CycleJoin needs k >= 3, got %d", k))
	}
	q := NewQuery(fmt.Sprintf("cycle-%d", k))
	for i := 1; i <= k; i++ {
		next := i%k + 1
		q.AddEdge(fmt.Sprintf("R%d", i), fmt.Sprintf("X%d", i), fmt.Sprintf("X%d", next))
	}
	return q
}

// TriangleJoin is CycleJoin(3), named for readability in experiments.
func TriangleJoin() *Query {
	q := CycleJoin(3)
	q.name = "triangle"
	return q
}

// StarJoin returns the star join with a central relation joined to m
// satellites through m distinct attributes:
//
//	R0(X1..Xm) ⋈ R1(X1,Y1) ⋈ ... ⋈ Rm(Xm,Ym)
//
// It is acyclic (a depth-1 join tree rooted at R0).
func StarJoin(m int) *Query {
	if m < 1 {
		panic(fmt.Sprintf("hypergraph: StarJoin needs m >= 1, got %d", m))
	}
	q := NewQuery(fmt.Sprintf("star-%d", m))
	hub := make([]string, m)
	for i := 0; i < m; i++ {
		hub[i] = fmt.Sprintf("X%d", i+1)
	}
	q.AddEdge("R0", hub...)
	for i := 1; i <= m; i++ {
		q.AddEdge(fmt.Sprintf("R%d", i), fmt.Sprintf("X%d", i), fmt.Sprintf("Y%d", i))
	}
	return q
}

// StarDualJoin returns the star-dual join from Section 1.3:
//
//	R0(X1,...,Xm) ⋈ R1(X1) ⋈ R2(X2) ⋈ ... ⋈ Rm(Xm)
//
// It has ρ* = 1 (take R0) while ψ* = m, exhibiting the p^((m-1)/m)
// one-round vs multi-round gap.
func StarDualJoin(m int) *Query {
	if m < 1 {
		panic(fmt.Sprintf("hypergraph: StarDualJoin needs m >= 1, got %d", m))
	}
	q := NewQuery(fmt.Sprintf("stardual-%d", m))
	hub := make([]string, m)
	for i := 0; i < m; i++ {
		hub[i] = fmt.Sprintf("X%d", i+1)
	}
	q.AddEdge("R0", hub...)
	for i := 1; i <= m; i++ {
		q.AddEdge(fmt.Sprintf("R%d", i), fmt.Sprintf("X%d", i))
	}
	return q
}

// SemiJoinExample is the worked example of Section 1.3:
//
//	R1(A) ⋈ R2(A,B) ⋈ R3(B)
//
// with ψ* = τ* = 2 (pack {R1,R3}) yet ρ* = 1 (cover {R2}); one round
// needs load Õ(N/√p) while two semi-join rounds achieve linear load.
func SemiJoinExample() *Query {
	return MustParse("semijoin-example", "R1(A) R2(A,B) R3(B)")
}

// LoomisWhitneyJoin returns LW_n: E = {V − {x} : x ∈ V} over n
// attributes (footnote 3). LW_3 is the triangle query.
func LoomisWhitneyJoin(n int) *Query {
	if n < 3 {
		panic(fmt.Sprintf("hypergraph: LoomisWhitneyJoin needs n >= 3, got %d", n))
	}
	q := NewQuery(fmt.Sprintf("lw-%d", n))
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("X%d", i+1)
	}
	for skip := 0; skip < n; skip++ {
		var attrs []string
		for i := 0; i < n; i++ {
			if i != skip {
				attrs = append(attrs, names[i])
			}
		}
		q.AddEdge(fmt.Sprintf("R%d", skip+1), attrs...)
	}
	return q
}

// Figure4Join returns the 8-relation acyclic query of Figure 4:
//
//	e0(A,B,C,H) e1(A,B,D) e2(B,C,E) e3(A,C,F) e4(A,B,H,J)
//	e5(A,H,I) e6(A,I,K) e7(A,I,G)
//
// used by Example 3.4 to show the conservative run of the generic
// algorithm is suboptimal (ρ* = 6, but the conservative cost formula
// pays a sub-join of size N^7).
func Figure4Join() *Query {
	return MustParse("figure4",
		"e0(A,B,C,H) e1(A,B,D) e2(B,C,E) e3(A,C,F) e4(A,B,H,J) e5(A,H,I) e6(A,I,K) e7(A,I,G)")
}

// TreeJoin returns a complete binary tree of binary relations with the
// given depth: relation nodes join parent attribute to child attribute.
// Tree joins decompose into vertex-disjoint path joins (footnote 8).
func TreeJoin(depth int) *Query {
	if depth < 1 {
		panic(fmt.Sprintf("hypergraph: TreeJoin needs depth >= 1, got %d", depth))
	}
	q := NewQuery(fmt.Sprintf("tree-%d", depth))
	// Nodes numbered heap-style: attribute per node, relation per link.
	total := 1<<uint(depth+1) - 1
	for child := 2; child <= total; child++ {
		parent := child / 2
		q.AddEdge(fmt.Sprintf("R%d", child-1),
			fmt.Sprintf("V%d", parent), fmt.Sprintf("V%d", child))
	}
	return q
}

// HierarchicalExample is a small r-hierarchical query from the class of
// [15]: R1(A,B) ⋈ R2(A,B,C) has nested attribute edge-sets... to stay
// reduced we use the canonical two-level form below.
func HierarchicalExample() *Query {
	return MustParse("hierarchical", "R1(A,B) R2(A,C)")
}

// Line3Join is the simplest non-hierarchical acyclic query named in
// Section 1.3: R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D).
func Line3Join() *Query {
	q := PathJoin(3)
	q.name = "line3"
	return q
}

// CatalogEntry names one catalog query for table-driven experiments.
type CatalogEntry struct {
	Query *Query
	// Class is the finest Figure 1 class the query belongs to, as a
	// human-readable label; tests cross-check it against the predicates.
	Class string
}

// Catalog returns the full set of queries used across the experiments,
// in a stable order.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{HierarchicalExample(), "r-hierarchical"},
		{SemiJoinExample(), "r-hierarchical"},
		{StarDualJoin(3), "r-hierarchical"},
		{Line3Join(), "berge-acyclic"},
		{PathJoin(4), "berge-acyclic"},
		{StarJoin(3), "berge-acyclic"},
		{TreeJoin(2), "berge-acyclic"},
		{Figure4Join(), "alpha-acyclic"},
		{TriangleJoin(), "cyclic"},
		{CycleJoin(4), "degree-two"},
		{CycleJoin(6), "degree-two"},
		{LoomisWhitneyJoin(4), "loomis-whitney"},
		{SquareJoin(), "edge-packing-provable"},
		{SpokeJoin(4), "edge-packing-provable"},
		{SpokeJoin(5), "edge-packing-provable"},
	}
}
