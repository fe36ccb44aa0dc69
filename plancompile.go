package coverpack

import (
	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
)

// This file re-exports the query-compilation shape cache: the
// process-wide LRU of compiled-plan artifacts keyed on the canonical
// form of a query's hypergraph (internal/plan, internal/hypergraph's
// Canon). It is the only compile memo and it is always on. Invariant
// artifacts are shared only within an isomorphism class and
// equivariant ones only between identically-embedded queries, so every
// served artifact equals its direct computation (the tests compare
// each slot with the function it memoizes).

// PlanCompileStats reports the shape-cache counters: invariant slot
// hits/misses, the iso-hit subset served across fingerprints,
// equivariant slot hits/misses, LRU evictions and the live entry count.
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
// the query exceeds the canonical search bounds.
func CanonicalKey(q *Query) string { return hypergraph.CanonKey(q) }

// CompiledPlan bundles what the compilation pipeline decides about one
// query shape: its analysis, canonical identity, acyclicity, and the
// recommended algorithm. Every field is invariant under relabeling, so
// isomorphic queries compile to equal plans (modulo the shared
// Analysis pointer).
type CompiledPlan struct {
	// Analysis is the shared immutable analysis (see Analyze).
	Analysis *Analysis
	// Key is the canonical shape key ("" when the query is too large
	// to canonicalize).
	Key string
	// Acyclic reports α-acyclicity (via the cached GYO reduction).
	Acyclic bool
	// Algorithm is the recommended algorithm for the shape.
	Algorithm Algorithm
}

// CompileQuery resolves the compiled plan for q through the shape
// cache: repeated or isomorphic queries skip classification, LP solves
// and join-tree search entirely. The query's handle is resolved once
// and serves both the analysis and the key; a query too large to
// canonicalize is analyzed directly and gets the empty key.
func CompileQuery(q *Query) (*CompiledPlan, error) {
	var (
		a   *Analysis
		err error
		key string
	)
	if h, ok := plan.For(q); ok {
		a, err = analyzeSlot(h, q)
		key = h.Key()
	} else {
		a, err = analyze(q)
	}
	if err != nil {
		return nil, err
	}
	return &CompiledPlan{
		Analysis:  a,
		Key:       key,
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
