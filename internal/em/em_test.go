package em

import (
	"math"
	"testing"
)

func syntheticProfile(n int, exponent float64, rounds int, ps ...int) LoadProfile {
	pts := make(map[int]int, len(ps))
	for _, p := range ps {
		pts[p] = int(float64(n) / math.Pow(float64(p), 1/exponent))
	}
	return LoadProfile{N: n, Rounds: rounds, Points: pts}
}

func TestFitExponentRecovers(t *testing.T) {
	for _, want := range []float64{1, 1.5, 2, 3} {
		profile := syntheticProfile(1_000_000, want, 3, 4, 16, 64, 256)
		x, c, err := FitExponent(profile)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x-want) > 0.1*want {
			t.Errorf("exponent %v: fitted %.3f", want, x)
		}
		if c < 0.5 || c > 2 {
			t.Errorf("exponent %v: constant %.3f not ~1", want, c)
		}
	}
}

func TestFitExponentErrors(t *testing.T) {
	if _, _, err := FitExponent(LoadProfile{N: 10, Points: map[int]int{2: 5}}); err == nil {
		t.Fatal("one point should error")
	}
	// Increasing load with p is nonsense.
	bad := LoadProfile{N: 100, Points: map[int]int{2: 10, 8: 40}}
	if _, _, err := FitExponent(bad); err == nil {
		t.Fatal("increasing load should error")
	}
}

func TestReduceClosedForm(t *testing.T) {
	// L = N/p^{1/2} (ρ* = 2): the corollary predicts N²/(M·B) I/Os;
	// the priced simulation must land within a small factor.
	n := 1 << 20
	profile := syntheticProfile(n, 2, 3, 4, 16, 64, 256)
	machine := Params{M: 1 << 14, B: 1 << 6}
	res, err := Reduce(profile, machine)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * float64(n) / (float64(machine.M) * float64(machine.B))
	if res.ClosedForm < 0.5*want || res.ClosedForm > 2*want {
		t.Fatalf("closed form %.3g, want ~%.3g", res.ClosedForm, want)
	}
	// p* = (N·r/M)^2 up to the constant.
	if res.PStar < 10000 {
		t.Fatalf("pStar = %d, suspiciously small", res.PStar)
	}
	ratio := res.IOs / res.ClosedForm
	if ratio < 0.05 || ratio > 50 {
		t.Fatalf("priced IOs %.3g vs closed form %.3g diverge (ratio %.2f)",
			res.IOs, res.ClosedForm, ratio)
	}
}

func TestReduceLinearLoadFitsInMemory(t *testing.T) {
	// Linear load L = N/p: p* grows only linearly; I/Os ~ r·N/B·const.
	n := 1 << 18
	profile := syntheticProfile(n, 1, 2, 4, 16, 64)
	machine := Params{M: 1 << 12, B: 1 << 5}
	res, err := Reduce(profile, machine)
	if err != nil {
		t.Fatal(err)
	}
	scanIOs := float64(profile.Rounds) * float64(n) / float64(machine.B)
	if res.IOs < scanIOs || res.IOs > 10*scanIOs {
		t.Fatalf("IOs %.3g, expected near %.3g", res.IOs, scanIOs)
	}
}

// TestReduceRoundTripTwoMemorySizes runs the full reduction round trip
// (profile → fitted exponent → p* → priced I/Os) at two memory sizes
// and checks it against the model it came from: p* must be the minimal
// server count whose fitted load fits in M/r, and more memory must never
// cost more servers or more I/Os.
func TestReduceRoundTripTwoMemorySizes(t *testing.T) {
	n := 1 << 20
	profile := syntheticProfile(n, 2, 3, 4, 16, 64, 256)
	x, c, err := FitExponent(profile)
	if err != nil {
		t.Fatal(err)
	}
	load := func(p int) float64 { return c * float64(n) / math.Pow(float64(p), 1/x) }

	small := Params{M: 1 << 12, B: 1 << 5}
	large := Params{M: 1 << 16, B: 1 << 5}
	rs, err := Reduce(profile, small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Reduce(profile, large)
	if err != nil {
		t.Fatal(err)
	}

	if rl.PStar > rs.PStar {
		t.Fatalf("more memory needs more servers: p*(M=%d)=%d > p*(M=%d)=%d",
			large.M, rl.PStar, small.M, rs.PStar)
	}
	if rl.IOs > rs.IOs {
		t.Fatalf("more memory costs more I/Os: %.3g > %.3g", rl.IOs, rs.IOs)
	}
	for _, tc := range []struct {
		machine Params
		res     *Result
	}{{small, rs}, {large, rl}} {
		budget := float64(tc.machine.M) / float64(profile.Rounds)
		// The fitted load at p* fits the per-round memory budget (small
		// tolerance for the ceil in p* and the regression fit)...
		if got := load(tc.res.PStar); got > 1.01*budget {
			t.Fatalf("M=%d: load(p*=%d) = %.1f exceeds budget %.1f",
				tc.machine.M, tc.res.PStar, got, budget)
		}
		// ...and p* is minimal: one server fewer would overflow it.
		if tc.res.PStar > 1 {
			if got := load(tc.res.PStar - 1); got <= 0.99*budget {
				t.Fatalf("M=%d: p*-1=%d already fits (load %.1f <= budget %.1f)",
					tc.machine.M, tc.res.PStar-1, got, budget)
			}
		}
	}
}

func TestReduceValidation(t *testing.T) {
	profile := syntheticProfile(1000, 2, 1, 2, 8)
	for _, m := range []Params{{M: 0, B: 1}, {M: 10, B: 0}, {M: 4, B: 8}} {
		if _, err := Reduce(profile, m); err == nil {
			t.Fatalf("machine %+v should be rejected", m)
		}
	}
}
