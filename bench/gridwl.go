package main

import (
	"fmt"
	"math"
	"time"

	"inductance101/internal/grid"
	"inductance101/internal/matrix"
	"inductance101/internal/sim"
)

// gridWL is the gridnoise -synth path at ~10^5 nodes: each op builds the
// multigrid hierarchy and solves the static IR system to 1e-10, then
// runs the 100-step transient of a clock-gating burst on one cached
// hierarchy. The seed draws the per-node load currents.
type gridWL struct {
	g    *grid.SynthGrid
	x    []float64
	tran *sim.GridTranResult
}

const (
	gridNodes = 100000
	gridTStop = 2e-9
	gridTStep = 20e-12
)

// gridActivity is gridnoise's burst: 20% background draw, full draw
// from 0.5 ns.
func gridActivity(t float64) float64 {
	if t < 0.5e-9 {
		return 0.2
	}
	return 1
}

func (w *gridWL) setup(e *env, iter int) error {
	id := e.tr.begin(-1, iter, "grid.synth")
	spec := grid.DefaultSynthSpec(gridNodes)
	spec.LoadJitter = 0.3
	spec.LoadSeed = e.seed
	g, err := grid.Synthesize(spec)
	if err != nil {
		e.tr.end(id, nil)
		return err
	}
	e.tr.end(id, map[string]float64{"grid.nodes": float64(g.N), "grid.nnz": float64(g.NNZ())})
	w.g = g
	return nil
}

func (w *gridWL) measure(e *env, deadline time.Time) ([]float64, int, int) {
	return closedLoop(e, deadline, func(iter int) error { return w.op(e, iter) })
}

func (w *gridWL) op(e *env, iter int) error {
	root := e.tr.begin(-1, iter, "grid")
	defer e.tr.end(root, nil)

	dc := e.tr.begin(root, iter, "grid.dc")
	id := e.tr.begin(dc, iter, "matrix.mg_setup")
	mg, err := matrix.NewMG(w.g.Sys, matrix.MGOptions{Workers: e.workers, Coarsener: w.g.Coarsener()})
	if err != nil {
		e.tr.end(id, nil)
		e.tr.end(dc, nil)
		return err
	}
	st := mg.Stats()
	e.tr.end(id, map[string]float64{"matrix.mg_levels": float64(st.Levels), "matrix.mg_op_complexity": st.OperatorComplexity})
	id = e.tr.begin(dc, iter, "matrix.pcg")
	x, st, err := mg.SolvePCG(w.g.B, matrix.MGSolveOptions{Tol: 1e-10})
	e.tr.end(id, map[string]float64{"matrix.pcg_iters": float64(st.Iterations)})
	e.tr.end(dc, nil)
	if err != nil {
		return err
	}

	tran, err := w.transient(e.tr, root, iter, e.workers)
	if err != nil {
		return err
	}
	w.x, w.tran = x, tran
	return nil
}

func (w *gridWL) transient(tr *tracer, parent, iter, workers int) (*sim.GridTranResult, error) {
	id := tr.begin(parent, iter, "sim.gridtran")
	res, err := sim.TranGridMG(sim.GridSystem{
		G: w.g.Sys, CDiag: w.g.CDiag,
		RHS:       w.g.TranRHS(gridActivity, workers),
		Coarsener: w.g.Coarsener,
	}, sim.GridTranOptions{
		TStop: gridTStop, TStep: gridTStep, Workers: workers,
		SaveNodes: []int{w.g.CenterBottomNode()},
	})
	if err != nil {
		tr.end(id, nil)
		return nil, err
	}
	tr.end(id, map[string]float64{"sim.gridtran_pcg_iters": float64(res.PCGIters)})
	return res, nil
}

// gate recomputes both solves' residuals from the assembled system. The
// static solution must meet 1e-9 (it reaches about 4e-11). The burst
// holds full activity for the last 1.5 ns, hundreds of the grid's RC
// time constants, so the final transient state must solve the same
// static system; each step stops at the transient's own 1e-8
// tolerance, so its bound is 1e-7 (it reaches about 7e-9).
func (w *gridWL) gate(*env) error {
	if r := relResidual(w.g.Sys, w.x, w.g.B); !(r <= 1e-9) {
		return fmt.Errorf("grid: static solve relative residual %.3g above 1e-9", r)
	}
	if r := relResidual(w.g.Sys, w.tran.V, w.g.B); !(r <= 1e-7) {
		return fmt.Errorf("grid: final transient state relative residual %.3g above 1e-7", r)
	}
	return nil
}

// relResidual returns |b - A x| / |b|.
func relResidual(a *matrix.CSR, x, b []float64) float64 {
	ax := a.MulVec(x)
	num, den := 0.0, 0.0
	for i := range b {
		num += (b[i] - ax[i]) * (b[i] - ax[i])
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

// traceExtras measures the transient's parallel efficiency: one serial
// run against the window's median at the run's worker count.
func (w *gridWL) traceExtras(e *env, spans []span) error {
	par := layerValues(spans, []string{"sim.gridtran_s"})["sim.gridtran_s"]
	t0 := time.Now()
	if _, err := w.transient(newTracer(false), -1, 0, 1); err != nil {
		return err
	}
	e.extras["sim.gridtran_parallel_eff"] = time.Since(t0).Seconds() / (par * float64(e.workers))
	return nil
}

func (w *gridWL) close() {}
