package lp

import (
	"fmt"
	"math/big"
)

// tableau is a dense simplex tableau over exact rationals.
//
// Layout: rows is the m×(ncols+1) constraint matrix in the current basis,
// with the right-hand side stored in the final column. Columns 0..n-1 are
// the structural variables, followed by one slack/surplus column per
// inequality row, followed by one artificial column per row that needed
// one. basis[i] is the variable currently basic in row i.
type tableau struct {
	rows  [][]*big.Rat
	basis []int
	ncols int // number of variable columns (excludes RHS)

	n          int   // structural variables
	initCol    []int // per constraint row: the column that started as unit vector e_i
	artificial []int // columns that are artificial variables
	isArt      []bool

	// Scratch big.Rats reused across the pivot, reduced-cost and
	// ratio-test loops. Without them every pivot allocates one Rat per
	// matrix element, which dominates the solver's cost on the tiny
	// hypergraph LPs. Each scratch value is fully written before any
	// tableau entry is read back, so reuse never aliases live data.
	sPe, sF, sTerm, sRC *big.Rat
	sRatioA, sRatioB    *big.Rat
	sCmpA, sCmpB        *big.Int
}

// ratCmp compares two rationals by cross-multiplying into scratch
// big.Ints: big.Rat.Cmp allocates both cross-products on every call,
// and the ratio test compares twice per row. Denominators of
// normalized big.Rats are always positive, so the cross-product
// comparison needs no sign fix-up.
func (t *tableau) ratCmp(x, y *big.Rat) int {
	t.sCmpA.Mul(x.Num(), y.Denom())
	t.sCmpB.Mul(y.Num(), x.Denom())
	return t.sCmpA.Cmp(t.sCmpB)
}

func (p *Problem) validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: problem has %d variables", p.NumVars)
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != p.NumVars {
			return fmt.Errorf("lp: constraint %d has %d coefficients for %d variables", i, len(c.Coeffs), p.NumVars)
		}
	}
	return nil
}

// solve runs the two-phase simplex over exact rationals: the reference
// the integer tableau is tested against, and its fallback (see Solve in
// intsimplex.go for the public entry point). It never mutates the
// problem and is deterministic: Bland's rule breaks all ties by lowest
// column index, so identical inputs yield identical bases.
func solve(p *Problem) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := newTableau(p)

	// Phase 1: drive the artificial variables to zero.
	if len(t.artificial) > 0 {
		phase1 := make([]*big.Rat, t.ncols)
		for j := range phase1 {
			phase1[j] = new(big.Rat)
		}
		for _, j := range t.artificial {
			phase1[j] = big.NewRat(-1, 1)
		}
		if st := t.run(phase1, false); st == Unbounded {
			// A sum of nonnegative variables maximized at most to 0 can
			// never be unbounded; this would indicate a solver bug.
			return nil, fmt.Errorf("lp: phase 1 reported unbounded")
		}
		if t.objectiveValue(phase1).Sign() != 0 {
			return &Solution{Status: Infeasible}, nil
		}
		t.evictArtificials()
	}

	// Phase 2: optimize the real objective, with artificials banned.
	costs := make([]*big.Rat, t.ncols)
	for j := range costs {
		costs[j] = new(big.Rat)
	}
	for j := 0; j < p.NumVars; j++ {
		c := new(big.Rat).Set(p.Objective[j])
		if !p.Maximize {
			c.Neg(c)
		}
		costs[j] = c
	}
	if st := t.run(costs, true); st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	sol := &Solution{Status: Optimal}
	sol.X = make([]*big.Rat, p.NumVars)
	for j := range sol.X {
		sol.X[j] = new(big.Rat)
	}
	m := len(t.rows)
	for i := 0; i < m; i++ {
		if b := t.basis[i]; b < p.NumVars {
			sol.X[b].Set(t.rows[i][t.ncols])
		}
	}
	val := t.objectiveValue(costs)
	if !p.Maximize {
		val.Neg(val)
	}
	sol.Value = val

	// Dual values: y_i = cB · B^{-1} e_i, read from the column that
	// started as the unit vector for row i.
	sol.Dual = make([]*big.Rat, m)
	for i := 0; i < m; i++ {
		y := new(big.Rat) // freshly owned: retained in sol.Dual
		col := t.initCol[i]
		for k := 0; k < m; k++ {
			if costs[t.basis[k]].Sign() == 0 {
				continue
			}
			t.sTerm.Mul(costs[t.basis[k]], t.rows[k][col])
			y.Add(y, t.sTerm)
		}
		// The surplus column of a GE row is the negated unit vector, so
		// when it (rather than an artificial) anchors the row the sign
		// flips; newTableau always records an artificial as initCol for
		// GE/EQ rows, so no adjustment is needed here.
		if !p.Maximize {
			y.Neg(y)
		}
		sol.Dual[i] = y
	}
	return sol, nil
}

// Maximize is shorthand for solving with the direction forced to max.
func Maximize(p *Problem) (*Solution, error) {
	q := *p
	q.Maximize = true
	return Solve(&q)
}

// Minimize is shorthand for solving with the direction forced to min.
func Minimize(p *Problem) (*Solution, error) {
	q := *p
	q.Maximize = false
	return Solve(&q)
}

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	n := p.NumVars

	// Count extra columns.
	slacks := 0
	arts := 0
	for _, c := range p.Constraints {
		neg := c.RHS.Sign() < 0
		sense := effectiveSense(c.Sense, neg)
		if sense != EQ {
			slacks++
		}
		if sense != LE {
			arts++
		}
	}
	ncols := n + slacks + arts
	t := &tableau{
		ncols:   ncols,
		n:       n,
		basis:   make([]int, m),
		initCol: make([]int, m),
		isArt:   make([]bool, ncols),
		sPe:     new(big.Rat),
		sF:      new(big.Rat),
		sTerm:   new(big.Rat),
		sRC:     new(big.Rat),
		sRatioA: new(big.Rat),
		sRatioB: new(big.Rat),
		sCmpA:   new(big.Int),
		sCmpB:   new(big.Int),
	}

	slackAt := n
	artAt := n + slacks
	for i, c := range p.Constraints {
		row := make([]*big.Rat, ncols+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		neg := c.RHS.Sign() < 0
		for j := 0; j < n; j++ {
			row[j].Set(c.Coeffs[j])
			if neg {
				row[j].Neg(row[j])
			}
		}
		rhs := new(big.Rat).Set(c.RHS)
		if neg {
			rhs.Neg(rhs)
		}
		row[ncols].Set(rhs)

		switch effectiveSense(c.Sense, neg) {
		case LE:
			row[slackAt].SetInt64(1)
			t.basis[i] = slackAt
			t.initCol[i] = slackAt
			slackAt++
		case GE:
			row[slackAt].SetInt64(-1)
			slackAt++
			row[artAt].SetInt64(1)
			t.basis[i] = artAt
			t.initCol[i] = artAt
			t.artificial = append(t.artificial, artAt)
			t.isArt[artAt] = true
			artAt++
		case EQ:
			row[artAt].SetInt64(1)
			t.basis[i] = artAt
			t.initCol[i] = artAt
			t.artificial = append(t.artificial, artAt)
			t.isArt[artAt] = true
			artAt++
		}
		t.rows = append(t.rows, row)
	}
	return t
}

// effectiveSense returns the sense after multiplying a row by -1 when its
// RHS was negative.
func effectiveSense(s Sense, negated bool) Sense {
	if !negated {
		return s
	}
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// run executes the simplex method for the given cost vector (always
// maximizing) using Bland's rule. banArtificials prevents artificial
// columns from entering the basis (phase 2).
func (t *tableau) run(costs []*big.Rat, banArtificials bool) Status {
	for {
		enter := -1
		for j := 0; j < t.ncols; j++ {
			if banArtificials && t.isArt[j] {
				continue
			}
			if t.reducedCost(costs, j).Sign() > 0 {
				enter = j
				break // Bland: first improving column.
			}
		}
		if enter == -1 {
			return Optimal
		}

		// Ratio test over two scratch Rats: ratio holds the candidate,
		// best the current winner; on acceptance they swap roles so the
		// winner's storage is never overwritten by the next candidate.
		leave := -1
		ratio, best := t.sRatioA, t.sRatioB
		for i := range t.rows {
			a := t.rows[i][enter]
			if a.Sign() <= 0 {
				continue
			}
			ratio.Quo(t.rows[i][t.ncols], a)
			var c int
			if leave != -1 {
				c = t.ratCmp(ratio, best)
			}
			switch {
			case leave == -1 || c < 0:
				leave = i
				ratio, best = best, ratio
			case c == 0 && t.basis[i] < t.basis[leave]:
				leave = i // Bland: lowest basic variable index on ties.
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// reducedCost computes c_j - cB·B^{-1}A_j for column j. The returned
// value is tableau scratch, valid only until the next tableau call.
func (t *tableau) reducedCost(costs []*big.Rat, j int) *big.Rat {
	r := t.sRC.Set(costs[j])
	for i := range t.rows {
		cb := costs[t.basis[i]]
		if cb.Sign() == 0 {
			continue
		}
		t.sTerm.Mul(cb, t.rows[i][j])
		r.Sub(r, t.sTerm)
	}
	return r
}

// objectiveValue computes cB·xB for the current basis.
func (t *tableau) objectiveValue(costs []*big.Rat) *big.Rat {
	v := new(big.Rat) // freshly owned: Solve retains it as the optimum
	for i := range t.rows {
		cb := costs[t.basis[i]]
		if cb.Sign() == 0 {
			continue
		}
		t.sTerm.Mul(cb, t.rows[i][t.ncols])
		v.Add(v, t.sTerm)
	}
	return v
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	pr := t.rows[leave]
	pe := t.sPe.Set(pr[enter])
	for j := range pr {
		pr[j].Quo(pr[j], pe)
	}
	for i, row := range t.rows {
		if i == leave || row[enter].Sign() == 0 {
			continue
		}
		// f copies row[enter] before the j loop zeroes it; sTerm is
		// fully written by Mul before Sub reads it, so neither scratch
		// aliases a live tableau entry.
		f := t.sF.Set(row[enter])
		for j := range row {
			t.sTerm.Mul(f, pr[j])
			row[j].Sub(row[j], t.sTerm)
		}
	}
	t.basis[leave] = enter
}

// evictArtificials pivots basic artificial variables out of the basis
// where possible after phase 1; rows where no pivot exists are redundant
// constraints whose artificial stays basic at value zero, which is
// harmless because phase 2 bans artificials from changing value.
func (t *tableau) evictArtificials() {
	for i := range t.rows {
		if !t.isArt[t.basis[i]] {
			continue
		}
		for j := 0; j < t.ncols; j++ {
			if t.isArt[j] {
				continue
			}
			if t.rows[i][j].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
}
