package bench

import (
	"fmt"
	"math/big"
	"time"

	"coverpack"
	"coverpack/internal/core"
	"coverpack/internal/cyclic"
	"coverpack/internal/fractional"
	"coverpack/internal/hypercube"
	"coverpack/internal/mpc"
	"coverpack/internal/plan"
	"coverpack/internal/yannakakis"
)

// Stages is the wall time of the four stages of one op.
type Stages struct {
	// Compile is everything before the cluster exists: the case's
	// cache resets and CompileQuery, the shape lookup for the
	// plan-cache hint, and ψ* for the skew-aware algorithm.
	Compile time.Duration
	// Cluster is mpc.NewCluster.
	Cluster time.Duration
	// Run is the algorithm package's entry point.
	Run time.Duration
	// Release is Stats, the plan-cache hint write-back and Release.
	Release time.Duration
}

// AlgLayer names the algorithm package an algorithm's run time is
// charged to (<layer>.run_ms).
func AlgLayer(alg coverpack.Algorithm) string {
	switch alg {
	case coverpack.AlgAcyclicOptimal, coverpack.AlgAcyclicConservative:
		return "core"
	case coverpack.AlgHyperCube, coverpack.AlgSkewAware:
		return "hypercube"
	case coverpack.AlgYannakakis:
		return "yannakakis"
	default:
		return "cyclic"
	}
}

// Staged runs the case's op stage by stage from bench code, mirroring
// coverpack.ExecuteOpts on the engine's public functions, and clocks
// each stage. The Report must equal ExecuteOpts's; bench_test pins
// that, so the mirror cannot drift unnoticed.
func (c *Case) Staged() (*coverpack.Report, Stages, error) {
	var st Stages
	eo := c.Opts
	if eo.Recorder != nil || eo.NoPlanCache || eo.PlanStats != nil || eo.Streaming != coverpack.StreamDefault ||
		eo.ParKernels != coverpack.ParKernelDefault || eo.PlanCompile != coverpack.PlanCompileDefault {
		return nil, st, fmt.Errorf("bench: staged op does not mirror options %+v", eo)
	}
	t0 := time.Now()
	alg, err := c.compile()
	if err != nil {
		return nil, st, err
	}
	var opts []mpc.Option
	if eo.Workers != 0 && eo.Workers != 1 {
		opts = append(opts, mpc.WithWorkers(eo.Workers))
	}
	shape, shapeOK := plan.For(c.In.Query)
	if shapeOK {
		if v, hit := shape.Invariant("mpc_plan_entries"); hit {
			opts = append(opts, mpc.WithPlanCacheHint(v.(int)))
		}
	}
	if eo.Spilling == coverpack.SpillOn && eo.SpillDir != "" {
		opts = append(opts, mpc.WithSpill(eo.SpillDir, eo.SpillBudgetBytes))
	}
	var psi float64
	if alg == coverpack.AlgSkewAware {
		r, err := shapePsi(c)
		if err != nil {
			return nil, st, err
		}
		psi, _ = r.Float64()
	}
	t1 := time.Now()
	cl := mpc.NewCluster(c.P, opts...)
	t2 := time.Now()
	rep := &coverpack.Report{Algorithm: alg}
	rep.Emitted, rep.L, err = runAlgorithm(alg, cl.Root(), c.In, psi)
	t3 := time.Now()
	if err != nil {
		cl.Release()
		return nil, st, err
	}
	rep.Stats = cl.Stats()
	if shapeOK {
		n := int(cl.PlanCacheStats().Misses)
		if v, hit := shape.Invariant("mpc_plan_entries"); !hit || n > v.(int) {
			shape.SetInvariant("mpc_plan_entries", n)
		}
	}
	cl.Release()
	t4 := time.Now()
	st = Stages{Compile: t1.Sub(t0), Cluster: t2.Sub(t1), Run: t3.Sub(t2), Release: t4.Sub(t3)}
	return rep, st, nil
}

// runAlgorithm calls the algorithm package's entry point.
func runAlgorithm(alg coverpack.Algorithm, g *mpc.Group, in *coverpack.Instance, psi float64) (emitted int64, l int, err error) {
	switch alg {
	case coverpack.AlgAcyclicOptimal, coverpack.AlgAcyclicConservative:
		strat := core.PathOptimal
		if alg == coverpack.AlgAcyclicConservative {
			strat = core.Conservative
		}
		res, err := core.Run(g, in, core.Options{Strategy: strat})
		if err != nil {
			return 0, 0, err
		}
		return res.Emitted, res.L, nil
	case coverpack.AlgHyperCube:
		res, err := hypercube.Run(g, in)
		if err != nil {
			return 0, 0, err
		}
		return res.Emitted, 0, nil
	case coverpack.AlgSkewAware:
		res, err := hypercube.SkewAware(g, in, psi)
		if err != nil {
			return 0, 0, err
		}
		return res.Emitted, 0, nil
	case coverpack.AlgYannakakis:
		res, err := yannakakis.Run(g, in)
		if err != nil {
			return 0, 0, err
		}
		return res.Emitted, 0, nil
	case coverpack.AlgTriangle:
		res, err := cyclic.RunTriangle(g, in)
		if err != nil {
			return 0, 0, err
		}
		return res.Emitted, 0, nil
	case coverpack.AlgLoomisWhitney:
		res, err := cyclic.RunLW(g, in)
		if err != nil {
			return 0, 0, err
		}
		return res.Emitted, 0, nil
	}
	return 0, 0, fmt.Errorf("bench: unknown algorithm %v", alg)
}

// shapePsi is ψ* through the shape cache, as ExecuteOpts reads it.
func shapePsi(c *Case) (*big.Rat, error) {
	h, ok := plan.For(c.In.Query)
	if !ok {
		return fractional.Psi(c.In.Query)
	}
	if v, hit := h.Invariant("psi"); hit {
		return v.(*big.Rat), nil
	}
	psi, err := fractional.Psi(c.In.Query)
	if err != nil {
		return nil, err
	}
	h.SetInvariant("psi", psi)
	return psi, nil
}
