package sim

import (
	"inductance101/internal/matrix"
	"inductance101/internal/sweep"
)

// Policy pins the linear-solver resources of one analysis run: how many
// goroutines the dense/sparse kernels may use, and where the simulator
// switches from the dense LU to the sparse direct solver. It is a small
// value carried inside TranOptions/AdaptiveOptions and by the
// policy-taking AC sweep, so two concurrently running analyses can use
// conflicting settings without touching process state.
//
// The zero value is the built-in default: GOMAXPROCS workers and the
// 256-unknown switch-over. Every solver path is deterministic in the
// worker count's presence — parallel kernels partition work without
// changing any per-element operation order — so Policy only trades wall
// clock for cores, never results.
type Policy struct {
	// Workers caps the solver goroutines (factorization strips, multi-RHS
	// solves, the history matvec, AC sweep fan-out). 0 = built-in
	// default (GOMAXPROCS), 1 = fully serial.
	Workers int
	// SparseThreshold is the MNA size at which linear analyses switch to
	// the sparse direct solver: > 0 is an explicit switch-over size, 0 =
	// built-in default (256), < 0 forces the dense path at every size.
	SparseThreshold int
	// SweepMode selects exact per-point AC sweeps, the adaptive
	// rational-interpolation engine, or automatic selection by point
	// count (the zero value, sweep.ModeAuto).
	SweepMode sweep.Mode
	// SweepTol is the adaptive engine's relative interpolation
	// tolerance (0 = sweep.DefaultTol).
	SweepTol float64
}

// sparseAt reports whether a system of the given size takes the sparse
// path under this policy.
func (p Policy) sparseAt(size int) bool {
	switch {
	case p.SparseThreshold > 0:
		return size >= p.SparseThreshold
	case p.SparseThreshold < 0:
		return false
	default:
		return size >= defaultSparseThreshold
	}
}

// solveDensePolicy is matrix.SolveDense with the policy's worker count.
func solveDensePolicy(a *matrix.Dense, b []float64, pol Policy) ([]float64, error) {
	f, err := matrix.FactorLUWorkers(a, pol.Workers)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
