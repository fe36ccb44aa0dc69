// Package lowerbound reproduces Section 5 of the paper: the
// edge-packing lower bounds for the ⊠-join Q_□ (Theorem 6) and
// edge-packing-provable degree-two joins (Theorem 7).
//
// The proof strategy is made measurable:
//
//  1. Hard instances come from internal/workload (attribute v has
//     N^{x_v} values for the witness vertex cover x; deterministic
//     relations are Cartesian products, relations in E' are sampled).
//  2. J(L) — the maximum number of join results one server can emit
//     after loading at most L tuples per relation — is measured by
//     searching the Cartesian-restricted strategy space that Lemma 5.1
//     proves is within a constant factor of optimal: the server loads
//     z_v values per attribute with Π_{v∈e} z_v ≤ L for every
//     deterministic relation, and picks the densest value boxes for the
//     probabilistic relations.
//  3. The counting argument p·J(L) ≥ OUT is inverted to find the
//     minimum feasible load, which must track N/p^{1/τ*} — strictly
//     above the AGM-based N/p^{1/ρ*} whenever τ* > ρ*.
package lowerbound

import (
	"fmt"
	"math"
	"sort"

	"coverpack/internal/fractional"
	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

// Analysis bundles everything a lower-bound experiment needs about one
// edge-packing-provable query.
type Analysis struct {
	Query   *hypergraph.Query
	Witness *fractional.Witness
	// Tau and Rho are τ* and ρ* as float64 for bound formulas.
	Tau, Rho float64
}

// Analyze verifies the query is edge-packing-provable and collects its
// numbers.
func Analyze(q *hypergraph.Query) (*Analysis, error) {
	w, err := fractional.EdgePackingProvable(q)
	if err != nil {
		return nil, err
	}
	if !w.Provable {
		return nil, fmt.Errorf("lowerbound: %s: %s", q.Name(), w.Reason)
	}
	nums, err := fractional.Compute(q)
	if err != nil {
		return nil, err
	}
	tau, _ := nums.Tau.Float64()
	rho, _ := nums.Rho.Float64()
	return &Analysis{Query: q, Witness: w, Tau: tau, Rho: rho}, nil
}

// JResult reports one J(L) measurement.
type JResult struct {
	L int
	// Best is the maximum join results found over the strategy search.
	Best int64
	// Theory is the Section 5 bound shape 2·L^{τ*}·N^{ρ*−τ*} that the
	// Chernoff argument proves holds with high probability.
	Theory float64
	// Strategies is the number of load strategies evaluated.
	Strategies int
}

// MeasureJ measures J(L) on a hard instance of the analysis' query: the
// best over (a) the witness-guided allocation z_v = L^{x_v}, (b) a
// hill-climbing search over per-attribute budgets, with probabilistic
// boxes always chosen greedily by value frequency.
func MeasureJ(a *Analysis, in *relation.Instance, L int) JResult {
	if L < 1 {
		L = 1
	}
	q := a.Query
	n := in.N()
	attrs := q.AllVars().Attrs()

	// Attribute domains on the hard instance.
	dom := make(map[int]int64)
	for _, v := range attrs {
		seen := make(map[relation.Value]bool)
		for _, e := range q.EdgesWith(v).Edges() {
			for val := range in.Rel(e).DistinctValues(v) {
				seen[val] = true
			}
		}
		d := int64(len(seen))
		if d < 1 {
			d = 1
		}
		dom[v] = d
	}

	// Per-edge attribute lists, hoisted once: the strategy search below
	// evaluates thousands of candidate budget vectors and every
	// evaluation walks every edge's attributes — materializing the
	// VarSet per candidate dominated the allocation profile.
	edgeAttrs := make([][]int, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		edgeAttrs[e] = q.EdgeVars(e).Attrs()
	}

	// Per-attribute frequency rank of each value inside probabilistic
	// edges: a value is inside the greedy box of budget z_v exactly when
	// its rank is < z_v, so candidate evaluation needs no per-candidate
	// box sets.
	rank := make(map[int]map[relation.Value]int64)
	owner := make(map[int]int) // attr -> probabilistic edge owning it
	for _, e := range a.Witness.ProbEdges.Edges() {
		r := in.Rel(e)
		for _, v := range edgeAttrs[e] {
			owner[v] = e
			counts := make(map[relation.Value]int64)
			vp := r.Schema().Pos(v)
			for i := 0; i < r.Len(); i++ {
				counts[r.Row(i)[vp]]++
			}
			vals := make([]relation.Value, 0, len(counts))
			for val := range counts { // map order is random; ranked below
				vals = append(vals, val)
			}
			sort.Slice(vals, func(i, j int) bool {
				if counts[vals[i]] != counts[vals[j]] {
					return counts[vals[i]] > counts[vals[j]]
				}
				return vals[i] < vals[j]
			})
			rk := make(map[relation.Value]int64, len(vals))
			for i, val := range vals {
				rk[val] = int64(i)
			}
			rank[v] = rk
		}
	}

	evalCount := func(z map[int]int64) int64 {
		// Results = Π_{v ∉ E' attrs} z_v × Π_{e'∈E'} |R(e') ∩ box|.
		total := int64(1)
		for _, v := range attrs {
			if _, owned := owner[v]; !owned {
				total = relation.MulSat(total, z[v])
			}
		}
		for _, e := range a.Witness.ProbEdges.Edges() {
			r := in.Rel(e)
			var cnt int64
			for i := 0; i < r.Len(); i++ {
				t := r.Row(i)
				ok := true
				for _, v := range edgeAttrs[e] {
					// Inside the greedy box iff the value's frequency rank
					// fits the budget.
					if rank[v][r.Get(t, v)] >= z[v] {
						ok = false
						break
					}
				}
				if ok {
					cnt++
				}
			}
			total = relation.MulSat(total, cnt)
		}
		return total
	}

	feasible := func(z map[int]int64) bool {
		for e := 0; e < q.NumEdges(); e++ {
			if a.Witness.ProbEdges.Contains(e) {
				continue
			}
			prod := int64(1)
			for _, v := range edgeAttrs[e] {
				prod = relation.MulSat(prod, z[v])
				if prod > int64(L) {
					return false
				}
			}
		}
		return true
	}

	clampFeasible := func(z map[int]int64) {
		for _, v := range attrs {
			if z[v] < 1 {
				z[v] = 1
			}
			if z[v] > dom[v] {
				z[v] = dom[v]
			}
		}
		for !feasible(z) {
			// Halve the largest budget until feasible.
			bestV, bestZ := -1, int64(0)
			for _, v := range attrs {
				if z[v] > bestZ {
					bestV, bestZ = v, z[v]
				}
			}
			if bestZ <= 1 {
				break
			}
			z[bestV] = bestZ / 2
		}
	}

	// Strategy (a): the witness allocation z_v = L^{x_v}.
	z := make(map[int]int64, len(attrs))
	for _, v := range attrs {
		x, _ := a.Witness.Cover.Value(v).Float64()
		z[v] = int64(math.Floor(math.Pow(float64(L), x) + 1e-9))
	}
	clampFeasible(z)
	best := evalCount(z)
	strategies := 1

	// Strategy (b): hill climbing — double one budget, halve another.
	// cur and cand ping-pong as scratch: both always hold exactly the
	// attribute key set, so the full copy below overwrites every entry.
	cur := make(map[int]int64, len(z))
	for k, v := range z {
		cur[k] = v
	}
	cand := make(map[int]int64, len(cur))
	for iter := 0; iter < 120; iter++ {
		improved := false
		for _, up := range attrs {
			for _, down := range attrs {
				if up == down {
					continue
				}
				for k, v := range cur {
					cand[k] = v
				}
				cand[up] *= 2
				cand[down] = cand[down] / 2
				clampFeasible(cand)
				strategies++
				if c := evalCount(cand); c > best {
					best = c
					cur, cand = cand, cur
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}

	theory := 2 * math.Pow(float64(L), a.Tau) * math.Pow(float64(n), a.Rho-a.Tau)
	return JResult{L: L, Best: best, Theory: theory, Strategies: strategies}
}

// MinLoadResult is the output of the counting argument inversion.
type MinLoadResult struct {
	P int
	// MinL is the smallest measured-feasible load: p·J(L) ≥ OUT.
	MinL int
	// PackingBound is N/p^{1/τ*} (Theorems 6–7).
	PackingBound float64
	// CoverBound is N/p^{1/ρ*} (the AGM counting bound the paper shows
	// is not tight for these queries).
	CoverBound float64
	// Out is the join output size being counted against.
	Out int64
}

// MinLoad inverts the counting argument for p servers: walk a geometric
// ladder of L values and return the first with p·J(L) ≥ OUT.
func MinLoad(a *Analysis, in *relation.Instance, p int, out int64) MinLoadResult {
	n := in.N()
	res := MinLoadResult{
		P:            p,
		PackingBound: float64(n) / math.Pow(float64(p), 1/a.Tau),
		CoverBound:   float64(n) / math.Pow(float64(p), 1/a.Rho),
		Out:          out,
	}
	L := n / p
	if L < 1 {
		L = 1
	}
	for L <= n {
		j := MeasureJ(a, in, L)
		if j.Best > 0 && relation.MulSat(int64(p), j.Best) >= out {
			res.MinL = L
			return res
		}
		next := L + (L+3)/4 // ×1.25 ladder
		if next == L {
			next = L + 1
		}
		L = next
	}
	res.MinL = n
	return res
}
