package sim

import (
	"fmt"
	"math"
	"sync"

	"inductance101/internal/matrix"
)

// Power-grid transient on the multigrid path. The netlist transient
// (Tran/TranSparse) tops out around 10^4 unknowns: every step refactors
// or re-solves a general MNA system. Supply grids are a much more
// structured problem — the SPD conductance system G is fixed, the decap
// matrix C is diagonal, and backward Euler with a fixed step h turns
// every time step into one solve against the same companion operator
//
//	A = G + C/h,    A v_{k+1} = (C/h) v_k + b(t_{k+1}).
//
// TranGridMG builds one multigrid hierarchy for A, then reuses it for
// every step: each solve is a handful of V-cycles warm-started from the
// previous voltage state. The per-step vector work (companion RHS,
// droop scan) is domain-decomposed — each worker owns a contiguous node
// partition — and bit-deterministic at any worker count.
//
// Once a step's PCG returns its warm start bit for bit, the state is
// settled for that excitation: while b(t) repeats bit for bit, every
// later step would hand PCG the same rhs and warm start, so it repeats
// the answer without solving. Piecewise-constant activity makes most
// steps such repeats, and the results stay bit-identical to solving.
//
// The DC start G v = b(0) reuses the same hierarchy: PCG on G,
// preconditioned by the V-cycle of A. Since G ≤ A ≤ (1 + τ_max/h) G,
// with τ_max the grid's largest RC constant (largest eigenvalue of
// G⁻¹C), an exact A⁻¹ would bound the condition number by 1 + τ_max/h,
// so it converges fast while τ_max/h is small. Past dcStartBudget
// iterations G's own hierarchy is built and finishes from the last
// iterate, and the result records that fallback.

// GridSystem is the plain-data description of a power-grid transient
// problem: the conductance system, the diagonal decap, and the
// time-varying current excitation. It deliberately carries no generator
// types so any assembly path (grid.Synthesize, netlist stamping, file
// loaders) can feed the stepper.
type GridSystem struct {
	// G is the SPD nodal conductance system (both triangles stored).
	G *matrix.CSR
	// CDiag is the per-node decoupling capacitance (diagonal C); may be
	// zero where a node carries no decap.
	CDiag []float64
	// RHS writes the excitation vector b(t) into dst (fully overwritten).
	RHS func(t float64, dst []float64)
	// Coarsener, when non-nil, supplies a fresh geometry-aware coarsener
	// per hierarchy build (they are single-use and stateful).
	Coarsener func() matrix.Coarsener
}

// mgOptions returns the options of one hierarchy build: the run's
// worker cap and a fresh coarsener.
func (sys GridSystem) mgOptions(workers int) matrix.MGOptions {
	opt := matrix.MGOptions{Workers: workers}
	if sys.Coarsener != nil {
		opt.Coarsener = sys.Coarsener()
	}
	return opt
}

// GridTranOptions configures a TranGridMG run.
type GridTranOptions struct {
	// TStop is the end time; TStep the fixed backward-Euler step.
	TStop, TStep float64
	// Tol is the per-step PCG relative residual target (default 1e-8 —
	// looser than the static 1e-10 because warm starts keep the true
	// error far below the per-step tolerance).
	Tol float64
	// MaxIter bounds the PCG iterations of one step (default 200).
	MaxIter int
	// Workers caps the solver and vector-op parallelism (0 = process
	// default).
	Workers int
	// V0 is the initial node-voltage state. Nil solves the DC system
	// G v = b(0) for a consistent start.
	V0 []float64
	// SaveNodes lists node indices whose voltage is recorded every step.
	SaveNodes []int
}

func (o *GridTranOptions) setDefaults(n int) error {
	if o.TStop <= 0 || o.TStep <= 0 {
		return fmt.Errorf("sim: grid transient needs positive TStop/TStep, got %g/%g", o.TStop, o.TStep)
	}
	if o.TStep > o.TStop {
		return fmt.Errorf("sim: grid transient step %g exceeds stop time %g", o.TStep, o.TStop)
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.V0 != nil && len(o.V0) != n {
		return fmt.Errorf("sim: grid transient V0 length %d, want %d", len(o.V0), n)
	}
	for _, s := range o.SaveNodes {
		if s < 0 || s >= n {
			return fmt.Errorf("sim: grid transient save node %d outside [0,%d)", s, n)
		}
	}
	return nil
}

// GridTranResult is the outcome of a TranGridMG run.
type GridTranResult struct {
	// Times holds t=0 and every step time; Saved the per-SaveNodes
	// traces aligned with Times; MinV the per-time minimum node voltage.
	Times []float64
	Saved [][]float64
	MinV  []float64
	// WorstV is the lowest node voltage seen anywhere in the run, at
	// node WorstNode and time WorstTime — the transient droop number.
	WorstV    float64
	WorstNode int
	WorstTime float64
	// Steps is the time-step count; PCGIters the total PCG iterations
	// across all steps, repeated steps included. A step that needs no
	// iteration still costs a residual SpMV, which repeats avoid.
	Steps    int
	PCGIters int
	// RepeatedSteps counts the steps that reused the previous answer:
	// the last solved step returned its warm start unchanged and b(t)
	// equalled that step's b bit for bit.
	RepeatedSteps int
	// MG describes the stepping hierarchy (built once, reused per step).
	MG matrix.MGStats
	// DCIters counts the PCG iterations of the DC start (0 with V0);
	// DCFallback reports that the stepping hierarchy ran past
	// dcStartBudget on it, so G's own hierarchy finished the solve.
	DCIters    int
	DCFallback bool
	// V is the final node-voltage state.
	V []float64
}

// minNode returns the minimum of v and its index, domain-decomposed
// across workers (ties resolve to the lowest index, so the result is
// identical at any worker count).
func minNode(v []float64, workers int) (float64, int) {
	minV, minI := math.Inf(1), -1
	var mu sync.Mutex
	matrix.ParallelRangeWorkers(workers, len(v), 8192, func(lo, hi int) {
		lm, li := math.Inf(1), -1
		for i := lo; i < hi; i++ {
			if v[i] < lm {
				lm, li = v[i], i
			}
		}
		mu.Lock()
		if lm < minV || (lm == minV && li < minI) {
			minV, minI = lm, li
		}
		mu.Unlock()
	})
	return minV, minI
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dcStartBudget caps the DC-start PCG iterations on the stepping
// hierarchy. At 10⁵ nodes a build of G's own hierarchy costs about as
// much as 15–20 such iterations and its solve takes about 12 more, so a
// start that has not converged by 40 is finished sooner on G's own.
const dcStartBudget = 40

// dcStart solves G v = b(0) on the stepping hierarchy mg, finishing on
// G's own past dcStartBudget, and records both in res.
func dcStart(sys GridSystem, mg *matrix.MG, b []float64, opt GridTranOptions, res *GridTranResult) ([]float64, error) {
	sys.RHS(0, b)
	v, st, err := mg.SolvePCG(b, matrix.MGSolveOptions{Tol: opt.Tol, MaxIter: dcStartBudget, Workers: opt.Workers, A: sys.G})
	res.DCIters = st.Iterations
	if err == nil || v == nil { // v is nil unless PCG only ran out of iterations
		return v, err
	}
	res.DCFallback = true
	dc, err := matrix.NewMG(sys.G, sys.mgOptions(opt.Workers))
	if err != nil {
		return nil, err
	}
	v, st, err = dc.SolvePCG(b, matrix.MGSolveOptions{Tol: opt.Tol, MaxIter: opt.MaxIter, Workers: opt.Workers, X0: v})
	res.DCIters += st.Iterations
	return v, err
}

// TranGridMG runs the fixed-step backward-Euler transient of a power
// grid on one cached multigrid hierarchy. Steps are solved by
// warm-started MG-preconditioned conjugate gradients; per-step vector
// work is partitioned per worker.
func TranGridMG(sys GridSystem, opt GridTranOptions) (*GridTranResult, error) {
	if sys.G == nil || sys.RHS == nil {
		return nil, fmt.Errorf("sim: grid transient needs a conductance system and an RHS function")
	}
	n := sys.G.Rows()
	if len(sys.CDiag) != n {
		return nil, fmt.Errorf("sim: grid transient CDiag length %d, want %d", len(sys.CDiag), n)
	}
	if err := opt.setDefaults(n); err != nil {
		return nil, err
	}
	h := opt.TStep
	steps := int(math.Round(opt.TStop / h))
	if steps < 1 {
		steps = 1
	}

	// Companion operator A = G + C/h and its hierarchy, built once.
	a, err := sys.G.AddDiagScaled(1/h, sys.CDiag)
	if err != nil {
		return nil, fmt.Errorf("sim: grid transient companion build: %w", err)
	}
	mg, err := matrix.NewMG(a, sys.mgOptions(opt.Workers))
	if err != nil {
		return nil, fmt.Errorf("sim: grid transient hierarchy: %w", err)
	}

	res := &GridTranResult{
		Times: make([]float64, 0, steps+1),
		Saved: make([][]float64, len(opt.SaveNodes)),
		MinV:  make([]float64, 0, steps+1),
		Steps: steps,
		MG:    mg.Stats(),
	}
	b := make([]float64, n)
	var v []float64
	if opt.V0 != nil {
		v = make([]float64, n)
		copy(v, opt.V0)
	} else if v, err = dcStart(sys, mg, b, opt, res); err != nil {
		return nil, fmt.Errorf("sim: grid transient DC init: %w", err)
	}
	cOverH := make([]float64, n)
	for i, c := range sys.CDiag {
		cOverH[i] = c / h
	}
	// record appends the state v at time t; a repeat reuses the last
	// minimum, which v still holds and which cannot lower WorstV.
	record := func(t float64, v []float64, repeat bool) {
		res.Times = append(res.Times, t)
		mv, mi := 0.0, -1
		if repeat {
			mv = res.MinV[len(res.MinV)-1]
		} else {
			mv, mi = minNode(v, opt.Workers)
		}
		res.MinV = append(res.MinV, mv)
		if mi >= 0 && (len(res.MinV) == 1 || mv < res.WorstV) {
			res.WorstV, res.WorstNode, res.WorstTime = mv, mi, t
		}
		for k, node := range opt.SaveNodes {
			res.Saved[k] = append(res.Saved[k], v[node])
		}
	}
	record(0, v, false)

	// still records that the last solved step returned its warm start
	// bit for bit, after stillIters iterations. A step whose b(t) then
	// repeats that step's b bit for bit would hand SolvePCG the same
	// rhs and X0, so it reuses the answer instead of solving.
	rhs, bPrev := make([]float64, n), make([]float64, n)
	still, stillIters := false, 0
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		b, bPrev = bPrev, b
		sys.RHS(t, b)
		if still && sameBits(b, bPrev) {
			res.RepeatedSteps++
			res.PCGIters += stillIters
			record(t, v, true)
			continue
		}
		matrix.ParallelRangeWorkers(opt.Workers, n, 8192, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rhs[i] = cOverH[i]*v[i] + b[i]
			}
		})
		x, st, err := mg.SolvePCG(rhs, matrix.MGSolveOptions{
			Tol: opt.Tol, MaxIter: opt.MaxIter, X0: v, Workers: opt.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: grid transient step %d (t=%g): %w", k, t, err)
		}
		res.PCGIters += st.Iterations
		still, stillIters = sameBits(x, v), st.Iterations
		v = x
		record(t, v, false)
	}
	res.V = v
	return res, nil
}
