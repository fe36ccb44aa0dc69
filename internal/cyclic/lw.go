package cyclic

import (
	"fmt"
	"math"

	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// RunLW executes the multi-round worst-case optimal algorithm for any
// Loomis-Whitney join LW_n (E = {V−{x} : x ∈ V}, footnote 3 — the
// triangle is LW_3), the other family of Table 1's multi-round cell.
// Load: Õ(N/p^{1/ρ*}) with ρ* = n/(n−1).
//
// Same decomposition as the triangle: δ = N/p^{(n-1)/n}-style cutoff,
// stratify by the heavy pattern, run the all-light stratum on one-round
// HyperCube, and observe that fixing a heavy value of x makes the
// residual trivially acyclic — the edge V−{x} (which never contained x)
// becomes a full edge of the residual and absorbs every other relation,
// so internal/core finishes each heavy branch.
func RunLW(g *mpc.Group, in *relation.Instance) (*Result, error) {
	q := in.Query
	if !q.IsLoomisWhitney() {
		return nil, fmt.Errorf("cyclic: %s is not a Loomis-Whitney join", q.Name())
	}
	attrs := q.AllVars().Attrs()
	// Heavy cutoff: the share per dimension is p^{1/n} (every attribute
	// participates in n−1 of the n relations; the symmetric share LP
	// gives s_v = 1/n).
	delta := int64(float64(in.N()) / math.Pow(float64(g.Size()), 1/float64(len(attrs))))
	return runStrata(g, in, attrs, delta)
}
