package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
)

// IntProblem is a linear program whose coefficients are machine
// integers, in the dense row-major layout the integer tableau reads
// directly. It is the form for callers that build thousands of 0/1
// programs (ψ*'s residual enumeration) and cannot afford a big.Rat per
// coefficient; everything else states its program as a Problem, which
// Solve converts to this form itself.
type IntProblem struct {
	NumVars   int
	Maximize  bool
	Objective []int64 // length NumVars
	Coeffs    []int64 // len(Sense)×NumVars, row-major
	Sense     []Sense
	RHS       []int64 // length len(Sense)

	// Common denominators of Coeffs/RHS and of Objective (0 means 1).
	// Only integerize sets them: a Problem with fractional entries is
	// carried as integers over den, so the integer tableau starts as
	// exactly den times the rational one.
	den, objDen int64
}

func (p *IntProblem) validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: problem has %d variables", p.NumVars)
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars)
	}
	if m := len(p.Sense); len(p.RHS) != m || len(p.Coeffs) != m*p.NumVars {
		return fmt.Errorf("lp: %d senses, %d right-hand sides and %d coefficients for %d variables",
			m, len(p.RHS), len(p.Coeffs), p.NumVars)
	}
	return nil
}

// simplexRuns counts simplex executions (see MemoStats.SimplexRuns).
var simplexRuns atomic.Uint64

// Solve solves the problem exactly and returns the solution. It never
// mutates the problem, and identical problems yield identical
// solutions (the simplex is deterministic).
//
// Which tableau runs is decided by the problem alone: one whose
// entries, scaled to integers, fit in int64 is solved by the integer
// tableau, and handed to the rational one only if a pivot overflows.
// Both walk the same bases, so the choice is invisible in the result.
func Solve(p *Problem) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	simplexRuns.Add(1)
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	return w.solve(p, w.integerize(p))
}

// solve runs the integer tableau on w.ip, the image of p, when there
// is one, and the rational tableau otherwise or on overflow.
func (w *workspace) solve(p *Problem, integral bool) (*Solution, error) {
	if integral {
		if st, ok := w.tab.solve(&w.ip); ok {
			if st != Optimal {
				return &Solution{Status: st}, nil
			}
			if sol, ok := w.tab.solution(&w.ip); ok {
				return sol, nil
			}
		}
	}
	return solve(p)
}

// Value solves p and stores the optimum in v when the returned status
// is Optimal. The solve is counted in MemoStats.SimplexRuns.
func (p *IntProblem) Value(v *big.Rat) (Status, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	simplexRuns.Add(1)

	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	if st, ok := w.tab.solve(p); ok {
		if st != Optimal {
			return st, nil
		}
		if num, den, ok := w.tab.objective(p); ok {
			v.SetFrac64(num, den)
			return Optimal, nil
		}
	}
	sol, err := solve(p.problem())
	if err != nil {
		return 0, err
	}
	if sol.Status == Optimal {
		v.Set(sol.Value)
	}
	return sol.Status, nil
}

// problem converts p to the rational form for the big.Rat fallback.
func (p *IntProblem) problem() *Problem {
	n, den, objDen := p.NumVars, max(p.den, 1), max(p.objDen, 1)
	q := &Problem{NumVars: n, Maximize: p.Maximize, Objective: make([]*big.Rat, n)}
	for j, c := range p.Objective {
		q.Objective[j] = big.NewRat(c, objDen)
	}
	for i, s := range p.Sense {
		row := make([]*big.Rat, n)
		for j, c := range p.Coeffs[i*n : (i+1)*n] {
			row[j] = big.NewRat(c, den)
		}
		q.Constraints = append(q.Constraints, Constraint{Coeffs: row, Sense: s, RHS: big.NewRat(p.RHS[i], den)})
	}
	return q
}

// workspace is the scratch of one Solve or Value call: the integer
// tableau and the integer image of a Problem.
// Workspaces are pooled, so a steady-state solve allocates only what
// it returns; nothing in a returned Solution points into one.
type workspace struct {
	tab    intTableau
	ip     IntProblem
	rowDen []int64
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// grow returns s resized to n elements, reallocating only when the
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// integerize writes p into w.ip as integers over common denominators
// and reports whether that fits in int64. Row i is scaled by the LCM
// L_i of its denominators, then every row is brought over the single
// denominator D = ΠL_i (and the objective over its own LCM). The
// product, not the LCM, of the L_i is what keeps fraction-free
// pivoting exact: D times the rational tableau is then ± the adjugate
// of an integer basis matrix times an integer matrix in every basis.
func (w *workspace) integerize(p *Problem) bool {
	n, m := p.NumVars, len(p.Constraints)
	ip := &w.ip
	ip.NumVars, ip.Maximize = n, p.Maximize
	ip.Objective = grow(ip.Objective, n)
	ip.Coeffs = grow(ip.Coeffs, m*n)
	ip.Sense = grow(ip.Sense, m)
	ip.RHS = grow(ip.RHS, m)
	w.rowDen = grow(w.rowDen, m)

	var ok bool
	if _, ip.objDen, ok = scaleRow(ip.Objective, p.Objective, nil); !ok {
		return false
	}
	ip.den = 1
	for i, c := range p.Constraints {
		ip.Sense[i] = c.Sense
		if ip.RHS[i], w.rowDen[i], ok = scaleRow(ip.Coeffs[i*n:(i+1)*n], c.Coeffs, c.RHS); !ok {
			return false
		}
		if ip.den, ok = mul(ip.den, w.rowDen[i]); !ok {
			return false
		}
	}
	if ip.den == 1 {
		return true
	}
	for i := 0; i < m; i++ {
		f := ip.den / w.rowDen[i]
		row := ip.Coeffs[i*n : (i+1)*n]
		for j := range row {
			if row[j], ok = mul(row[j], f); !ok {
				return false
			}
		}
		if ip.RHS[i], ok = mul(ip.RHS[i], f); !ok {
			return false
		}
	}
	return true
}

// scaleRow writes l·src into dst and returns l·rhs and l, the least
// common multiple of the denominators of src and rhs (rhs may be nil).
func scaleRow(dst []int64, src []*big.Rat, rhs *big.Rat) (r, l int64, ok bool) {
	l = 1
	for _, c := range src {
		if l, ok = lcmDenom(l, c); !ok {
			return 0, 0, false
		}
	}
	if rhs != nil {
		if l, ok = lcmDenom(l, rhs); !ok {
			return 0, 0, false
		}
		if r, ok = scaled(rhs, l); !ok {
			return 0, 0, false
		}
	}
	for j, c := range src {
		if dst[j], ok = scaled(c, l); !ok {
			return 0, 0, false
		}
	}
	return r, l, true
}

// lcmDenom returns lcm(l, denominator of c).
func lcmDenom(l int64, c *big.Rat) (int64, bool) {
	if c.IsInt() {
		return l, true
	}
	d := c.Denom()
	if !d.IsInt64() {
		return 0, false
	}
	return mul(l, d.Int64()/gcd(l, d.Int64()))
}

// scaled returns c·l for a multiple l of c's denominator.
func scaled(c *big.Rat, l int64) (int64, bool) {
	num := c.Num()
	if !num.IsInt64() {
		return 0, false
	}
	if c.IsInt() {
		return mul(num.Int64(), l)
	}
	return mul(num.Int64(), l/c.Denom().Int64())
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mul returns a·b and whether it fits in int64. Both operands of
// nearly every product the tableau forms fit in 32 bits, which needs
// no check at all.
func mul(a, b int64) (int64, bool) {
	if int64(int32(a)) == a && int64(int32(b)) == b {
		return a * b, true
	}
	return mulWide(a, b)
}

func mulWide(a, b int64) (int64, bool) {
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = -ua
	}
	if b < 0 {
		ub = -ub
	}
	hi, lo := bits.Mul64(ua, ub)
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false // also refuses the one representable case −2⁶³
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// sub returns a−b and whether it fits in int64.
func sub(a, b int64) (int64, bool) {
	c := a - b
	return c, (a^b)&(a^c) >= 0
}

// add returns a+b and whether it fits in int64.
func add(a, b int64) (int64, bool) {
	c := a + b
	return c, (a^c)&(b^c) >= 0
}

// intTableau is the fraction-free (Bareiss/Edmonds) image of tableau:
// a holds den times the rational tableau's entries, all integers, with
// den > 0 the absolute determinant of the current basis (times the
// problem's own denominator). Signs and ratios of entries are those of
// the rational tableau, so Bland's rule picks the same entering and
// leaving variables and the two solvers walk the same bases; only the
// arithmetic differs. Every operation that could leave int64 reports
// it, and the caller re-solves with the rational tableau.
//
// Layout as in tableau: m rows of ncols variable columns (structural,
// then slack/surplus, then artificial) plus the right-hand side.
type intTableau struct {
	a      []int64
	m      int
	ncols  int
	stride int // ncols+1
	den    int64
	objDen int64 // the objective's own denominator, fixed by load

	basis   []int
	initCol []int // per row: the column that started as den·e_i
	isArt   []bool
	costs   []int64 // per column, always maximized
}

func (t *intTableau) row(i int) []int64 { return t.a[i*t.stride : (i+1)*t.stride] }

// load builds the initial tableau of p: den times newTableau's. It
// refuses an entry of −2⁶³, the one value whose negation overflows.
func (t *intTableau) load(p *IntProblem) bool {
	for _, s := range [...][]int64{p.Objective, p.Coeffs, p.RHS} {
		for _, v := range s {
			if v == math.MinInt64 {
				return false
			}
		}
	}
	n, m := p.NumVars, len(p.Sense)
	den := max(p.den, 1) // 0 means 1
	t.objDen = max(p.objDen, 1)
	slacks, arts := 0, 0
	for i, s := range p.Sense {
		s = effectiveSense(s, p.RHS[i] < 0)
		if s != EQ {
			slacks++
		}
		if s != LE {
			arts++
		}
	}
	t.m, t.ncols, t.stride, t.den = m, n+slacks+arts, n+slacks+arts+1, den
	t.a = grow(t.a, m*t.stride)
	clear(t.a)
	t.basis = grow(t.basis, m)
	t.initCol = grow(t.initCol, m)
	t.isArt = grow(t.isArt, t.ncols)
	clear(t.isArt)
	t.costs = grow(t.costs, t.ncols)

	slackAt, artAt := n, n+slacks
	for i, s := range p.Sense {
		row := t.row(i)
		neg := p.RHS[i] < 0
		copy(row, p.Coeffs[i*n:(i+1)*n])
		row[t.ncols] = p.RHS[i]
		if neg {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			row[t.ncols] = -row[t.ncols]
		}
		unit := -1
		switch effectiveSense(s, neg) {
		case LE:
			row[slackAt] = den
			unit = slackAt
			slackAt++
		case GE:
			row[slackAt] = -den
			slackAt++
			fallthrough
		case EQ:
			row[artAt] = den
			t.isArt[artAt] = true
			unit = artAt
			artAt++
		}
		t.basis[i], t.initCol[i] = unit, unit
	}
	return true
}

// solve runs both phases on p, leaving the optimal tableau and the
// phase-2 costs in t. ok is false when int64 overflowed.
func (t *intTableau) solve(p *IntProblem) (st Status, ok bool) {
	if !t.load(p) {
		return 0, false
	}
	arts := false
	for j, art := range t.isArt {
		t.costs[j] = 0
		if art {
			t.costs[j] = -1
			arts = true
		}
	}
	if arts {
		// Phase 1 maximizes −Σ artificials ≤ 0 and cannot be unbounded;
		// a run that claims so is left to the rational solver to report.
		if st, ok := t.run(false); !ok || st == Unbounded {
			return 0, false
		}
		for i := 0; i < t.m; i++ {
			if t.isArt[t.basis[i]] && t.row(i)[t.ncols] != 0 {
				return Infeasible, true
			}
		}
		if !t.evictArtificials() {
			return 0, false
		}
	}
	clear(t.costs)
	for j, c := range p.Objective {
		if !p.Maximize {
			c = -c
		}
		t.costs[j] = c
	}
	return t.run(true)
}

// run is tableau.run over integers: the reduced cost of column j has
// the sign of costs[j]·den − Σ_i costs[basis[i]]·a[i][j], and with
// a[i][enter] > 0 and right-hand sides ≥ 0 the ratio test compares
// cross products, exactly, in 128 bits.
func (t *intTableau) run(banArtificials bool) (Status, bool) {
	for {
		enter := -1
		for j := 0; j < t.ncols; j++ {
			if banArtificials && t.isArt[j] {
				continue
			}
			rc, ok := t.reducedCost(j)
			if !ok {
				return 0, false
			}
			if rc > 0 {
				enter = j
				break // Bland: first improving column.
			}
		}
		if enter == -1 {
			return Optimal, true
		}
		leave := -1
		for i := 0; i < t.m; i++ {
			row := t.row(i)
			if row[enter] <= 0 {
				continue
			}
			if leave == -1 {
				leave = i
				continue
			}
			best := t.row(leave)
			// rhs_i/a_i against rhs_leave/a_leave.
			c := cmpProducts(row[t.ncols], best[enter], best[t.ncols], row[enter])
			if c < 0 || c == 0 && t.basis[i] < t.basis[leave] {
				leave = i // Bland: lowest basic variable index on ties.
			}
		}
		if leave == -1 {
			return Unbounded, true
		}
		if !t.pivot(leave, enter) {
			return 0, false
		}
	}
}

// cmpProducts compares a·b with c·d for nonnegative operands.
func cmpProducts(a, b, c, d int64) int {
	h1, l1 := bits.Mul64(uint64(a), uint64(b))
	h2, l2 := bits.Mul64(uint64(c), uint64(d))
	switch {
	case h1 != h2:
		if h1 < h2 {
			return -1
		}
		return 1
	case l1 != l2:
		if l1 < l2 {
			return -1
		}
		return 1
	}
	return 0
}

// reducedCost returns den times the reduced cost of column j.
func (t *intTableau) reducedCost(j int) (int64, bool) {
	rc, ok := mul(t.costs[j], t.den)
	for i := 0; ok && i < t.m; i++ {
		cb := t.costs[t.basis[i]]
		if cb == 0 {
			continue
		}
		var term int64
		if term, ok = mul(cb, t.a[i*t.stride+j]); ok {
			rc, ok = sub(rc, term)
		}
	}
	return rc, ok
}

// pivot makes column enter basic in row leave. With p the pivot entry,
// the rational step (divide the pivot row by p/den, eliminate the
// column elsewhere) becomes: keep the pivot row, replace every other
// entry by (a[i][j]·p − a[i][enter]·a[leave][j]) / den — an exact
// division, since the result is the new basis's determinant times a
// rational tableau entry, a minor of the integer input — and take |p|
// as the new den (negating throughout when p < 0, which only
// evictArtificials can ask for).
func (t *intTableau) pivot(leave, enter int) bool {
	pr := t.row(leave)
	p, div := pr[enter], t.den
	if p < 0 {
		div = -div
	}
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		row := t.row(i)
		f := row[enter]
		if f == 0 && p == div {
			continue // the row is multiplied by p/den = 1
		}
		for j, x := range row {
			if x == 0 && (f == 0 || pr[j] == 0) {
				continue
			}
			x, ok1 := mul(x, p)
			y, ok2 := mul(f, pr[j])
			x, ok3 := sub(x, y)
			if !(ok1 && ok2 && ok3) {
				return false
			}
			if div != 1 {
				x /= div
			}
			row[j] = x
		}
	}
	if p < 0 {
		for j := range pr {
			pr[j] = -pr[j]
		}
		p = -p
	}
	t.den = p
	t.basis[leave] = enter
	return true
}

// evictArtificials is tableau.evictArtificials: after phase 1, pivot
// each basic artificial out on the first non-artificial column with a
// nonzero entry in its row.
func (t *intTableau) evictArtificials() bool {
	for i := 0; i < t.m; i++ {
		if !t.isArt[t.basis[i]] {
			continue
		}
		row := t.row(i)
		for j := 0; j < t.ncols; j++ {
			if t.isArt[j] || row[j] == 0 {
				continue
			}
			if !t.pivot(i, j) {
				return false
			}
			break
		}
	}
	return true
}

// objective returns the optimum of p as num/den (den > 0) after an
// Optimal solve.
func (t *intTableau) objective(p *IntProblem) (num, den int64, ok bool) {
	if num, ok = t.dot(t.ncols); !ok {
		return 0, 0, false
	}
	if !p.Maximize {
		num = -num
	}
	den, ok = mul(t.den, t.objDen)
	return num, den, ok
}

// dot returns Σ_i costs[basis[i]]·a[i][col].
func (t *intTableau) dot(col int) (int64, bool) {
	var sum int64
	for i := 0; i < t.m; i++ {
		cb := t.costs[t.basis[i]]
		if cb == 0 {
			continue
		}
		term, ok1 := mul(cb, t.a[i*t.stride+col])
		s, ok2 := add(sum, term)
		if !(ok1 && ok2) {
			return 0, false
		}
		sum = s
	}
	return sum, true
}

// solution reads the Solution of p off an Optimal tableau, as
// normalized rationals equal to the rational solver's. All the
// returned big.Rats live in one block, so a Solution costs a fixed
// handful of allocations plus the digits of its nonzero entries.
func (t *intTableau) solution(p *IntProblem) (*Solution, bool) {
	n, m := p.NumVars, t.m
	num, den, ok := t.objective(p)
	if !ok {
		return nil, false
	}
	rats := make([]big.Rat, 1+n+m)
	ptrs := make([]*big.Rat, n+m)
	for i := range ptrs {
		ptrs[i] = &rats[1+i]
	}
	sol := &Solution{Status: Optimal, Value: setFrac(&rats[0], num, den), X: ptrs[:n:n], Dual: ptrs[n:]}
	for i := 0; i < m; i++ {
		if b := t.basis[i]; b < n {
			setFrac(sol.X[b], t.row(i)[t.ncols], t.den)
		}
	}
	// Dual values: y_i = cB·B⁻¹e_i, read from the column that started
	// as the unit vector of row i (see the rational solver).
	for i := 0; i < m; i++ {
		y, ok := t.dot(t.initCol[i])
		if !ok {
			return nil, false
		}
		if !p.Maximize {
			y = -y
		}
		setFrac(sol.Dual[i], y, den)
	}
	return sol, true
}

// setFrac sets z (zero on entry) to num/den, den > 0. Zero stays the
// zero value and integers skip SetFrac64's big-integer gcd, which is
// most entries of most solutions.
func setFrac(z *big.Rat, num, den int64) *big.Rat {
	switch {
	case num == 0:
		return z
	case num%den == 0:
		return z.SetInt64(num / den)
	}
	return z.SetFrac64(num, den)
}
