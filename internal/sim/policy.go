package sim

import "inductance101/internal/sweep"

// Policy pins the linear-solver resources of one analysis run: how many
// goroutines the sparse kernels may use and how AC sweeps pick their
// frequency points. It is a small value carried inside TranOptions and
// by the policy-taking AC sweep, so two concurrently running analyses
// can use conflicting settings without touching process state.
//
// The zero value is the built-in default: GOMAXPROCS workers and the
// automatic sweep mode. Every solver path is deterministic in the
// worker count's presence — parallel kernels partition work without
// changing any per-element operation order — so Policy only trades wall
// clock for cores, never results.
type Policy struct {
	// Workers caps the solver goroutines (the sparse LU's parallel
	// refactorization, AC sweep fan-out). 0 = built-in default
	// (GOMAXPROCS), 1 = fully serial.
	Workers int
	// SweepMode selects exact per-point AC sweeps, the adaptive
	// rational-interpolation engine, or automatic selection by point
	// count (the zero value, sweep.ModeAuto).
	SweepMode sweep.Mode
	// SweepTol is the adaptive engine's relative interpolation
	// tolerance (0 = sweep.DefaultTol).
	SweepTol float64
}
