package coverpack

import (
	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
)

// This file re-exports the query-compilation shape cache: the
// process-wide memo of compiled-plan artifacts keyed on the query's own
// edge structure (internal/plan). It is the only compile memo and it is
// always on. Queries share an entry only when their attribute-id
// structure is identical, so every served artifact equals its direct
// computation (the tests compare each slot with the function it
// memoizes).

// PlanCompileStats reports the shape-cache counters: slot hits and
// misses and the live entry count (IsoHits always reads 0).
type PlanCompileStats = plan.Stats

// PlanCompileCacheStats snapshots the shape-cache counters.
func PlanCompileCacheStats() PlanCompileStats { return plan.Snapshot() }

// ResetPlanCompileCache drops every shape entry — and with them every
// memoized analysis, ψ*, join tree and cover — and zeroes the
// shape-cache counters (test and benchmark seam). ResetAnalyzeCache
// zeroes the analysis-slot counters.
func ResetPlanCompileCache() { plan.Reset() }

// CanonicalKey returns the labeling-invariant canonical shape key of
// q's hypergraph — equal keys iff isomorphic hypergraphs — or "" when
// the query exceeds the canonical search bounds. The shape cache does
// not use it.
func CanonicalKey(q *Query) string { return hypergraph.CanonKey(q) }

// CompiledPlan bundles what the compilation pipeline decides about one
// query: its analysis, acyclicity, and the recommended algorithm. Every
// field depends only on the query's hypergraph, so isomorphic queries
// compile to equal plans.
type CompiledPlan struct {
	// Analysis is the shared immutable analysis (see Analyze).
	Analysis *Analysis
	// Acyclic reports α-acyclicity.
	Acyclic bool
	// Algorithm is the recommended algorithm for the shape.
	Algorithm Algorithm
}

// CompileQuery resolves the compiled plan for q through the shape
// cache: a repeated shape skips classification, LP solves and join-tree
// search entirely.
func CompileQuery(q *Query) (*CompiledPlan, error) {
	a, err := Analyze(q)
	if err != nil {
		return nil, err
	}
	return &CompiledPlan{
		Analysis:  a,
		Acyclic:   a.Acyclic,
		Algorithm: RecommendAlgorithm(a),
	}, nil
}

// RecommendAlgorithm picks the implemented algorithm with the best
// proven load bound for the analyzed class: the paper's multi-round
// algorithm (Õ(N/p^{1/ρ*})) for acyclic queries, the Loomis-Whitney
// specialization for LW_n shapes, and the one-round skew-aware
// HyperCube (Õ(N/p^{1/ψ*})) for everything else.
func RecommendAlgorithm(a *Analysis) Algorithm {
	switch {
	case a.Acyclic:
		return AlgAcyclicOptimal
	case a.LoomisWhitney:
		return AlgLoomisWhitney
	default:
		return AlgSkewAware
	}
}
