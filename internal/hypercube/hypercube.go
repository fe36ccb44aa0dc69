// Package hypercube implements the one-round join algorithms of the MPC
// literature that the paper uses as baselines (Table 1's one-round
// column):
//
//   - The HyperCube (shares) algorithm of Afrati–Ullman and
//     Beame–Koutris–Suciu [3, 6]: servers form a grid with one dimension
//     per attribute; every tuple is replicated to the grid cells
//     consistent with the hashes of its known coordinates. On skew-free
//     instances the optimal shares give load Õ(N/p^{1/τ*}).
//
//   - A skew-aware variant in the spirit of [19]: values are classified
//     heavy/light per attribute, tuples are stratified by their heavy
//     pattern, and each stratum runs HyperCube with shares capped by the
//     number of distinct values per dimension (share exponents solve the
//     capped LP). Its worst-case load tracks Õ(N/p^{1/ψ*}) — the bound
//     the paper's multi-round algorithm beats whenever ψ* > ρ*.
//
// Share exponents are computed with the exact rational simplex; grid
// routing, local joins and emission all run on the internal/mpc
// simulator with full load accounting.
package hypercube

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"coverpack/internal/hypergraph"
	"coverpack/internal/lp"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// Result reports one algorithm execution.
type Result struct {
	// Emitted is the number of join results emitted (each exactly once).
	Emitted int64
	// Shares maps attribute id to its grid dimension size.
	Shares map[int]int
	// GridSize is the product of shares (servers actually addressed).
	GridSize int
}

// ShareExponents solves the share-allocation LP exactly:
//
//	maximize  t
//	s.t.      Σ_{v ∈ e} s_v ≥ t      for every relation e
//	          Σ_v s_v ≤ 1
//	          0 ≤ s_v ≤ cap_v
//
// The optimal t equals 1/τ* when caps are not binding, giving the
// classic N/p^{1/τ*} skew-free load. caps entries (optional) bound the
// exponent of an attribute, expressing that a dimension with few
// distinct values cannot usefully exceed that many shares.
func ShareExponents(q *hypergraph.Query, caps map[int]*big.Rat) (map[int]*big.Rat, error) {
	attrs := q.AllVars().Attrs()
	n := len(attrs)
	pos := make(map[int]int, n)
	for i, a := range attrs {
		pos[a] = i
	}
	for a := range caps {
		if _, ok := pos[a]; !ok {
			return nil, fmt.Errorf("hypercube: cap on unknown attribute %d", a)
		}
	}
	// Variables: s_0..s_{n-1}, then t. Every row is built in one reused
	// coefficient slice; cap rows follow in attribute order.
	p := lp.NewProblem(n+1, true)
	p.SetObjective(n, lp.Int(1))
	row := make([]int64, n+1)
	for e := 0; e < q.NumEdges(); e++ {
		clear(row)
		for _, a := range q.EdgeVars(e).Attrs() {
			row[pos[a]] = 1
		}
		row[n] = -1
		p.AddDense(row, lp.GE, 0)
	}
	for i := range row {
		row[i] = 1
	}
	row[n] = 0
	p.AddDense(row, lp.LE, 1)
	for i, a := range attrs {
		if cap, ok := caps[a]; ok {
			clear(row)
			row[i] = 1
			p.AddDenseRat(row, lp.LE, cap)
		}
	}
	sol, err := lp.Solve(p)
	if err != nil {
		return nil, fmt.Errorf("hypercube: share LP for %s: %w", q.Name(), err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("hypercube: share LP for %s: %v", q.Name(), sol.Status)
	}
	out := make(map[int]*big.Rat, n)
	for i, a := range attrs {
		out[a] = sol.X[i]
	}
	return out, nil
}

// Shares converts exponents into integer grid dimensions with product at
// most p: share_v = max(1, ⌊p^{s_v}⌋), then greedy growth of the
// dimensions with the largest exponents while the product stays within
// p. domCaps (optional) bounds a dimension by its distinct-value count.
func Shares(q *hypergraph.Query, p int, exps map[int]*big.Rat, domCaps map[int]int64) map[int]int {
	attrs := q.AllVars().Attrs()
	shares := make(map[int]int, len(attrs))
	prod := 1
	type ext struct {
		attr int
		exp  float64
	}
	var order []ext
	for _, a := range attrs {
		e, _ := exps[a].Float64()
		s := int(math.Floor(math.Pow(float64(p), e) + 1e-9))
		if s < 1 {
			s = 1
		}
		if c, ok := domCaps[a]; ok && int64(s) > c {
			s = int(c)
			if s < 1 {
				s = 1
			}
		}
		shares[a] = s
		prod *= s
		order = append(order, ext{a, e})
	}
	// Shrink if rounding overflowed the budget.
	sort.Slice(order, func(i, j int) bool { return order[i].exp < order[j].exp })
	for prod > p {
		shrunk := false
		for _, o := range order {
			if shares[o.attr] > 1 {
				prod = prod / shares[o.attr] * (shares[o.attr] - 1)
				shares[o.attr]--
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	// Grow the highest-exponent dimensions into the leftover budget.
	sort.Slice(order, func(i, j int) bool { return order[i].exp > order[j].exp })
	for {
		grew := false
		for _, o := range order {
			if o.exp == 0 {
				continue
			}
			if c, ok := domCaps[o.attr]; ok && int64(shares[o.attr]) >= c {
				continue
			}
			np := prod / shares[o.attr] * (shares[o.attr] + 1)
			if np <= p {
				shares[o.attr]++
				prod = np
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	return shares
}

// grid addresses servers by mixed-radix coordinates over the share
// dimensions (attribute-id order).
type grid struct {
	attrs  []int
	dims   []int
	stride []int
	size   int
}

func newGrid(attrs []int, shares map[int]int) *grid {
	g := &grid{attrs: attrs}
	g.size = 1
	for _, a := range attrs {
		d := shares[a]
		if d < 1 {
			d = 1
		}
		g.dims = append(g.dims, d)
	}
	g.stride = make([]int, len(g.dims))
	for i := len(g.dims) - 1; i >= 0; i-- {
		g.stride[i] = g.size
		g.size *= g.dims[i]
	}
	return g
}

// router sends the tuples of one schema to every grid cell consistent
// with their coordinates: dimensions whose attribute is in the schema
// are pinned to the value's hash, all others range freely. It holds one
// axis per grid dimension, in grid order.
type router []axis

type axis struct {
	pos         int    // schema position of the dimension's attribute, or -1 when free
	salt        uint64 // the attribute's hash constant, read when pinned
	dim, stride int
}

func (g *grid) router(s relation.Schema, salt uint64) router {
	r := make(router, len(g.attrs))
	for i, a := range g.attrs {
		// Each attribute gets an independent hash function: correlated
		// columns — e.g. matching instances where every attribute holds
		// the same value — must not collapse onto the grid diagonal.
		r[i] = axis{pos: s.Pos(a), salt: salt + uint64(a+1)*0x51_7c_c1_b7_27_22_0a_95, dim: g.dims[i], stride: g.stride[i]}
	}
	return r
}

// base is an mpc.RouteFan routing function: t's pinned coordinates sum
// to the first cell of its sub-grid, every free coordinate 0.
func (r router) base(_ int, t relation.Tuple) int {
	base := 0
	for _, x := range r {
		if x.pos >= 0 {
			base += int(coordHash(t[x.pos], x.salt)%uint64(x.dim)) * x.stride
		}
	}
	return base
}

// fan returns the RouteFan offsets of a sub-grid from its base cell:
// every combination of the free dimensions' coordinates, ascending,
// earlier dimensions outer. It is nil when no dimension is free: the
// base is the one cell.
func (r router) fan() []int {
	fan := []int{0}
	for _, x := range r {
		if x.pos >= 0 || x.dim == 1 {
			continue
		}
		next := make([]int, 0, len(fan)*x.dim)
		for _, o := range fan {
			for c := range x.dim {
				next = append(next, o+c*x.stride)
			}
		}
		fan = next
	}
	if len(fan) == 1 {
		return nil
	}
	return fan
}

// coordHash is a deterministic 64-bit mix of a value and a salt
// (splitmix64 finalizer).
func coordHash(v relation.Value, salt uint64) uint64 {
	x := uint64(v) + salt + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Run executes vanilla one-round HyperCube on the group: share LP,
// routing, local join, emission. The group's size is the server budget
// p; the grid uses at most p of them.
func Run(g *mpc.Group, in *relation.Instance) (*Result, error) {
	exps, err := ShareExponents(in.Query, nil)
	if err != nil {
		return nil, err
	}
	shares := Shares(in.Query, g.Size(), exps, nil)
	return RunWithShares(g, in, shares, 1), nil
}

// RunWithShares executes HyperCube with explicit shares; the salt keeps
// independent strata from sharing hash functions.
func RunWithShares(g *mpc.Group, in *relation.Instance, shares map[int]int, salt uint64) *Result {
	q := in.Query
	gr := newGrid(q.AllVars().Attrs(), shares)
	if gr.size > g.Size() {
		panic(fmt.Sprintf("hypercube: grid %d exceeds group %d", gr.size, g.Size()))
	}
	// Route every relation in the single round. The relation is routed
	// as placed, one fragment, which is the form Scatter starts from:
	// Scatter is free and untraced, RouteFan charges receivers only, and
	// the grid router ignores the source server, so loads, Stats and
	// traces are those of scattering first — without a full copy of the
	// relation held until Release.
	local := make([]*mpc.DistRelation, q.NumEdges())
	g.Span("hypercube route", func() {
		for e := 0; e < q.NumEdges(); e++ {
			r := in.Rel(e)
			placed := &mpc.DistRelation{Frags: relation.NewFrags(r.Schema(), r.Data(), []int32{0, int32(r.Len())})}
			rt := gr.router(r.Schema(), salt)
			local[e] = g.RouteFan(placed, rt.base, rt.fan())
		}
	})
	// Local joins; emit() is zero-cost per the model. Each server's join
	// is independent, so they run under the group's worker pool.
	schemas := make([]relation.Schema, q.NumEdges())
	for e := range schemas {
		schemas[e] = local[e].Schema
	}
	counter := relation.NewCounter(schemas)
	// One slab of views: server s's relations are views[s*E:(s+1)*E].
	views := make([]relation.View, gr.size*len(local))
	emitted := g.Emit(gr.size, func(s int) int64 {
		frags := views[s*len(local) : (s+1)*len(local)]
		for e := range frags {
			frags[e] = local[e].Frag(s)
		}
		return counter.Count(frags)
	})
	g.Free(local...)
	return &Result{Emitted: emitted, Shares: shares, GridSize: gr.size}
}
