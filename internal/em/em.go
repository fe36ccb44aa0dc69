// Package em models the MPC → external-memory reduction of [19] that
// the paper uses in Section 1.3/1.4: any MPC algorithm running in r
// rounds with load L(N, p) converts to an EM algorithm incurring
// Õ(N/B · r) I/Os with p* = min{p : L(N, p) ≤ M/r} "virtual servers"
// simulated in memory — so a load profile L(N, p) = N/p^{1/ρ*} yields
//
//	O( N^{ρ*} / ( M^{ρ*−1} · B ) )  I/Os,
//
// the corollary the paper states for acyclic joins (shadowing [11]).
// The package is an analytic cost model: it converts measured MPC
// (rounds, load-vs-p) profiles into EM I/O estimates, so the EM
// corollary can be checked against the simulator's measurements.
package em

import (
	"fmt"
	"math"
	"sort"
)

// Params describes the EM machine.
type Params struct {
	M int // memory size, in tuples
	B int // block size, in tuples
}

// LoadProfile is a measured (or analytic) load function: the max
// per-round load the MPC algorithm achieves with p servers on a fixed
// instance of size N.
type LoadProfile struct {
	N      int
	Rounds int
	// Points maps p to measured load L(N, p); at least two points.
	Points map[int]int
}

// FitExponent least-squares fits log L = log c − (1/x)·log p and
// returns x (the exponent such that L ≈ c·N/p^{1/x}) plus the constant
// c (relative to N). It is the estimator every scaling experiment uses
// to compare measured exponents against ρ*, τ* or ψ*.
func FitExponent(profile LoadProfile) (x float64, c float64, err error) {
	if len(profile.Points) < 2 {
		return 0, 0, fmt.Errorf("em: need at least two (p, load) points")
	}
	var ps []int
	for p := range profile.Points {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	// Regress y = a + b·t with t = log p, y = log L; slope b = −1/x.
	var st, sy, stt, sty float64
	n := float64(len(ps))
	for _, p := range ps {
		t := math.Log(float64(p))
		y := math.Log(float64(profile.Points[p]))
		st += t
		sy += y
		stt += t * t
		sty += t * y
	}
	b := (n*sty - st*sy) / (n*stt - st*st)
	a := (sy - b*st) / n
	if b >= 0 {
		return 0, 0, fmt.Errorf("em: load does not decrease with p (slope %.3f)", b)
	}
	x = -1 / b
	c = math.Exp(a) / float64(profile.N)
	return x, c, nil
}

// Result is the EM cost estimate for one reduction.
type Result struct {
	// PStar is min{p : L(N, p) ≤ M/r}.
	PStar int
	// IOs is the estimated I/O count Õ(r·N/B · polylog) without the
	// polylog factor.
	IOs float64
	// ClosedForm is the corollary N^{ρ*}/(M^{ρ*−1}·B) evaluated with
	// the fitted exponent, for comparison with IOs.
	ClosedForm float64
}

// Reduce applies the [19] reduction to a load profile: it fits the load
// exponent, solves for p*, and prices the simulation at r·(N + p*·M)/B
// I/Os (each round streams the whole data plus the p* memory images).
func Reduce(profile LoadProfile, machine Params) (*Result, error) {
	if machine.M <= 0 || machine.B <= 0 || machine.B > machine.M {
		return nil, fmt.Errorf("em: invalid machine M=%d B=%d", machine.M, machine.B)
	}
	x, c, err := FitExponent(profile)
	if err != nil {
		return nil, err
	}
	r := profile.Rounds
	if r < 1 {
		r = 1
	}
	// L(N, p) = c·N/p^{1/x} ≤ M/r  ⇔  p ≥ (c·N·r/M)^x.
	target := c * float64(profile.N) * float64(r) / float64(machine.M)
	pStar := 1
	if target > 1 {
		pStar = int(math.Ceil(math.Pow(target, x)))
	}
	ios := float64(r) * (float64(profile.N) + float64(pStar)*float64(machine.M)) / float64(machine.B)
	closed := math.Pow(float64(profile.N), x) /
		(math.Pow(float64(machine.M), x-1) * float64(machine.B))
	return &Result{PStar: pStar, IOs: ios, ClosedForm: closed}, nil
}
