// Package lp implements a small, exact linear-programming solver:
// rational in, rational (math/big.Rat) out, no epsilon anywhere.
//
// The solver targets the tiny LPs that arise when computing fractional
// edge covers, edge packings, and vertex covers of join hypergraphs: a
// handful of variables and constraints, solved by the thousand (ψ* is
// a maximum over 2^|V| residual packings). Fractional edge
// covering/packing numbers of real queries are small rationals (often
// half-integral, see Lemma 5.3 of the paper), and an exact simplex lets
// the rest of the repository compare them with == instead of epsilon
// tests.
//
// The entry points are Solve and Maximize, which accept a Problem in
// the general form
//
//	optimize  c·x
//	s.t.      A_i·x (<=|=|>=) b_i   for each constraint i
//	          x >= 0
//
// Solve runs a two-phase dense simplex with Bland's anti-cycling rule and
// returns both the primal solution and the dual values (shadow prices),
// which the fractional package uses to extract optimal vertex covers from
// edge packings.
//
// Exactness does not need arbitrary precision on these inputs. There
// are two tableaus making the same pivots:
//
//   - intTableau (intsimplex.go) is fraction-free: it holds the
//     rational tableau's entries times one common denominator, the
//     determinant of the current basis, as int64s, and pivots by
//     Bareiss's exact division. Every product and difference is
//     overflow-checked.
//   - tableau (simplex.go) is the same method over big.Rat.
//
// Which one runs is a function of the problem, not of any setting. A
// Problem whose rows, each scaled by the LCM of its denominators, fit
// in int64 starts on the integer tableau; if a pivot overflows, or the
// problem has no such image, it is solved from scratch by the rational
// one. Because entry signs and ratios agree between the two, Bland's
// rule walks the same bases in both and Status, X, Value and Dual are
// equal as normalized rationals — FuzzSolveIntVsRat and the dispatch
// tests hold them to that. The big.Rat tableau stays because it is the
// only one that cannot overflow, and because it is the independent
// reference the integer one is tested against. IntProblem is the
// integer tableau's native input, for the one caller (ψ*) that builds
// its programs by the thousand.
package lp

import (
	"fmt"
	"math/big"
)

// Int is a convenience constructor for an exact integer rational.
func Int(a int64) *big.Rat { return big.NewRat(a, 1) }

// zero and one are shared immutable constants. Callers must not mutate
// the returned values; big.Rat arithmetic always writes to the receiver,
// so fresh receivers are used everywhere below.
var (
	zero = big.NewRat(0, 1)
	one  = big.NewRat(1, 1)
)

// Sense is the direction of a constraint.
type Sense int

const (
	// LE is a "less than or equal" constraint A·x <= b.
	LE Sense = iota
	// EQ is an equality constraint A·x = b.
	EQ
	// GE is a "greater than or equal" constraint A·x >= b.
	GE
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Constraint is a single linear constraint Coeffs·x (Sense) RHS.
type Constraint struct {
	Coeffs []*big.Rat
	Sense  Sense
	RHS    *big.Rat
}

// Problem is a linear program over n nonnegative variables.
type Problem struct {
	// NumVars is the number of decision variables; all are constrained
	// to be nonnegative.
	NumVars int
	// Objective holds the cost coefficients c (length NumVars).
	Objective []*big.Rat
	// Maximize selects the optimization direction.
	Maximize bool
	// Constraints are the rows of the program.
	Constraints []Constraint
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set is empty.
	Infeasible
	// Unbounded means the objective is unbounded in the chosen direction.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// Value is the optimal objective value (nil unless Status==Optimal).
	Value *big.Rat
	// X holds the primal variable values (length NumVars).
	X []*big.Rat
	// Dual holds one shadow price per constraint, following the usual
	// LP duality sign conventions for a maximization problem with <=
	// rows (and negated appropriately for other senses/directions).
	Dual []*big.Rat
}

// NewProblem allocates a Problem with n variables and a zero objective.
func NewProblem(n int, maximize bool) *Problem {
	obj := make([]*big.Rat, n)
	for i := range obj {
		obj[i] = new(big.Rat)
	}
	return &Problem{NumVars: n, Objective: obj, Maximize: maximize}
}

// SetObjective sets the cost coefficient of variable i.
func (p *Problem) SetObjective(i int, c *big.Rat) {
	p.Objective[i] = new(big.Rat).Set(c)
}

// AddConstraint appends a constraint row. The coefficient slice is copied.
func (p *Problem) AddConstraint(coeffs []*big.Rat, sense Sense, rhs *big.Rat) {
	cp := make([]*big.Rat, p.NumVars)
	for i := range cp {
		if i < len(coeffs) && coeffs[i] != nil {
			cp[i] = new(big.Rat).Set(coeffs[i])
		} else {
			cp[i] = new(big.Rat)
		}
	}
	p.Constraints = append(p.Constraints, Constraint{
		Coeffs: cp,
		Sense:  sense,
		RHS:    new(big.Rat).Set(rhs),
	})
}

// AddDense appends a constraint given plain int64 coefficients.
func (p *Problem) AddDense(coeffs []int64, sense Sense, rhs int64) {
	p.addDense(coeffs, sense).SetInt64(rhs)
}

// AddDenseRat is AddDense with a rational right-hand side (copied).
func (p *Problem) AddDenseRat(coeffs []int64, sense Sense, rhs *big.Rat) {
	p.addDense(coeffs, sense).Set(rhs)
}

// addDense appends the row and returns its right-hand side, zero, for
// the caller to set. The row's rationals are built in place in one
// block rather than one by one and then copied by AddConstraint.
func (p *Problem) addDense(coeffs []int64, sense Sense) *big.Rat {
	rats := make([]big.Rat, p.NumVars+1)
	cp := make([]*big.Rat, p.NumVars)
	for i := range cp {
		cp[i] = &rats[i]
		if i < len(coeffs) && coeffs[i] != 0 {
			cp[i].SetInt64(coeffs[i])
		}
	}
	rhs := &rats[p.NumVars]
	p.Constraints = append(p.Constraints, Constraint{Coeffs: cp, Sense: sense, RHS: rhs})
	return rhs
}
