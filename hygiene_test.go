package coverpack_test

import (
	"runtime"
	"testing"
	"time"

	"coverpack"
	"coverpack/internal/hypergraph"
)

// Engine shutdown hygiene: after Release (run by every ExecuteOpts
// path via its deferred cluster release), no engine goroutine may
// linger. Fork participants are joined by the fork barrier itself, so
// any goroutine surviving an execution is a leak. GOMAXPROCS is raised
// for the test's duration so parallel worker pools really engage
// (WithWorkers falls back to sequential at GOMAXPROCS=1, which would
// make the check vacuous on a single-CPU host).
func TestExecuteOptsPathsLeakNoGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	in := coverpack.Uniform(hypergraph.Line3Join(), 1200, 1500, 3)
	triIn := coverpack.Uniform(hypergraph.TriangleJoin(), 1200, 1500, 3)
	paths := []struct {
		name string
		alg  coverpack.Algorithm
		eo   coverpack.ExecOptions
	}{
		{"default", coverpack.AlgYannakakis, coverpack.ExecOptions{}},
		{"workers", coverpack.AlgYannakakis, coverpack.ExecOptions{Workers: 4}},
		{"workers-nocache", coverpack.AlgYannakakis, coverpack.ExecOptions{Workers: 4, NoPlanCache: true}},
		{"workers-traced", coverpack.AlgTriangle, coverpack.ExecOptions{Workers: 4, Recorder: coverpack.NewTraceCollector()}},
		{"morsel-off", coverpack.AlgYannakakis, coverpack.ExecOptions{Workers: 4, ParKernels: coverpack.ParKernelOff}},
		{"gomaxprocs-workers", coverpack.AlgHyperCube, coverpack.ExecOptions{Workers: -1}},
	}

	// Warm up process-level machinery (pools, lazily started runtime
	// helpers) so the baseline below is steady state.
	if _, err := coverpack.Execute(coverpack.AlgYannakakis, in, 8); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for _, pc := range paths {
		runIn := in
		if pc.alg == coverpack.AlgTriangle {
			runIn = triIn
		}
		if _, err := coverpack.ExecuteOpts(pc.alg, runIn, 8, pc.eo); err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		// Fork goroutines are joined before ExecuteOpts returns; give the
		// scheduler a bounded grace window for exit bookkeeping only.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > baseline {
			t.Fatalf("%s: %d goroutines after Release, baseline %d", pc.name, now, baseline)
		}
	}
}
