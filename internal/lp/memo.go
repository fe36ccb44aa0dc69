package lp

import (
	"encoding/binary"
	"math/big"
	"sync"
	"sync/atomic"
)

// Exact-match solve memoization.
//
// The LPs this package sees are tiny but repeated relentlessly: every
// Analyze of the same (or an isomorphic) query rebuilds the identical
// cover/packing and share programs. Solve is deterministic (Bland's
// rule), so a byte-exact serialization of the problem — direction,
// objective, constraint matrix, senses, right-hand sides — is a sound
// memo key: equal keys imply equal problems imply equal solutions, bit
// for bit. Hits return a deep copy, so callers may mutate results
// freely (the pre-memo contract). ψ*'s residual enumeration stays out
// of the memo (IntProblem.Value): its thousands of one-shot packing
// LPs would evict the few programs every warm run re-reads.
//
// The memo is a pure wall-clock lever with a kill switch (SetMemo,
// toggled together with the rest of the compile cache by
// coverpack.SetPlanCompileCache); simplexRuns counts actual simplex
// executions so tests can prove a warm path solved nothing.

// maxMemoEntries bounds the retained solutions; on overflow the whole
// memo is cleared (deterministic and simple, mirroring mpc's plan
// cache discipline).
const maxMemoEntries = 2048

// MemoStats snapshots the solve-memo counters.
type MemoStats struct {
	Hits, Misses uint64
	// SimplexRuns counts actual two-phase simplex executions: misses,
	// every solve while the memo is disabled, and every
	// IntProblem.Value.
	SimplexRuns uint64
	Entries     int
}

var (
	memoOff     atomic.Bool // read without memoMu
	memoMu      sync.Mutex
	memo        = make(map[string]*Solution)
	memoHits    uint64
	memoMisses  uint64
	simplexRuns uint64
)

// SetMemo toggles solve memoization process-wide (on by default).
func SetMemo(on bool) { memoOff.Store(!on) }

// MemoEnabled reports whether solve memoization is active.
func MemoEnabled() bool { return !memoOff.Load() }

// ResetMemo drops every memoized solution and zeroes the counters.
func ResetMemo() {
	memoMu.Lock()
	memo = make(map[string]*Solution)
	memoHits, memoMisses, simplexRuns = 0, 0, 0
	memoMu.Unlock()
}

// Memo snapshots the counters.
func Memo() MemoStats {
	memoMu.Lock()
	defer memoMu.Unlock()
	return MemoStats{Hits: memoHits, Misses: memoMisses,
		SimplexRuns: simplexRuns, Entries: len(memo)}
}

// ratKey serializes a problem that has no int64 image exactly.
// RatString is canonical (big.Rat normalizes), so equal keys imply
// equal problems; the leading 'm' of "max"/"min" keeps these keys
// apart from intKey's.
func ratKey(b []byte, p *Problem) []byte {
	if p.Maximize {
		b = append(b, "max;"...)
	} else {
		b = append(b, "min;"...)
	}
	for _, c := range p.Objective {
		b = append(b, c.RatString()...)
		b = append(b, ',')
	}
	for _, row := range p.Constraints {
		b = append(b, ';')
		for _, c := range row.Coeffs {
			b = append(b, c.RatString()...)
			b = append(b, ',')
		}
		b = append(b, row.Sense.String()...)
		b = append(b, row.RHS.RatString()...)
	}
	return b
}

// intKey serializes the integer image of a problem: shape, direction,
// denominators, then every entry as a varint. integerize is a function
// of the problem alone, and the image determines the problem, so equal
// keys still imply equal problems.
func intKey(b []byte, p *IntProblem) []byte {
	b = append(b, 'i')
	if p.Maximize {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(p.NumVars))
	b = binary.AppendVarint(b, p.objDen)
	b = binary.AppendVarint(b, p.den)
	for _, c := range p.Objective {
		b = binary.AppendVarint(b, c)
	}
	for _, s := range p.Sense {
		b = append(b, byte(s))
	}
	for _, c := range p.RHS {
		b = binary.AppendVarint(b, c)
	}
	for _, c := range p.Coeffs {
		b = binary.AppendVarint(b, c)
	}
	return b
}

// clone deep-copies a solution (nil-safe on the optional fields).
func (s *Solution) clone() *Solution {
	out := &Solution{Status: s.Status}
	if s.Value != nil {
		out.Value = new(big.Rat).Set(s.Value)
	}
	if s.X != nil {
		out.X = cloneRats(s.X)
	}
	if s.Dual != nil {
		out.Dual = cloneRats(s.Dual)
	}
	return out
}

// Solve solves the problem exactly and returns the solution. It never
// mutates the problem, and identical problems yield identical
// solutions (the simplex is deterministic); repeated identical
// problems are served from the solve memo when it is enabled.
//
// Which tableau runs is decided by the problem alone: one whose
// entries, scaled to integers, fit in int64 is solved by the integer
// tableau, and handed to the rational one only if a pivot overflows.
// Both walk the same bases, so the choice is invisible in the result.
func Solve(p *Problem) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	integral := w.integerize(p)

	if memoOff.Load() {
		memoMu.Lock()
		simplexRuns++
		memoMu.Unlock()
		return w.solve(p, integral)
	}
	if integral {
		w.key = intKey(w.key[:0], &w.ip)
	} else {
		w.key = ratKey(w.key[:0], p)
	}
	memoMu.Lock()
	if sol, ok := memo[string(w.key)]; ok {
		memoHits++
		out := sol.clone()
		memoMu.Unlock()
		return out, nil
	}
	memoMisses++
	simplexRuns++
	memoMu.Unlock()
	sol, err := w.solve(p, integral)
	if err != nil {
		return nil, err
	}
	memoMu.Lock()
	if len(memo) >= maxMemoEntries {
		memo = make(map[string]*Solution)
	}
	memo[string(w.key)] = sol.clone()
	memoMu.Unlock()
	return sol, nil
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
