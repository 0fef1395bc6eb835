package sim

import (
	"fmt"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// sparseGmin returns G + gmin*I(nodes) as a fresh triplet.
func sparseGmin(sm *circuit.SparseMNA) *matrix.Triplet {
	size := sm.Size()
	g := matrix.NewTriplet(size, size).AddScaled(1, sm.G)
	for i := 0; i < sm.N.NumNodes(); i++ {
		g.Add(i, i, gmin)
	}
	return g
}

// opSparse computes the DC operating point of a linear netlist with the
// sparse LU (capacitors open, inductors short, sources at t0).
func opSparse(sm *circuit.SparseMNA, t0 float64, workers int) ([]float64, error) {
	f, err := matrix.FactorSparseLUWorkers(sparseGmin(sm).ToCSC(), workers)
	if err != nil {
		return nil, fmt.Errorf("sim: singular DC system: %w", err)
	}
	b := make([]float64, sm.Size())
	sm.RHS(t0, b)
	return f.Solve(b)
}

// deltaWork is the scratch of the delta-form companion step.
//
// The trapezoidal step A x' = H x + b + b' has A = G + gmin + αC and
// H = αC − G, so H = A − D with D = 2G + gmin; backward Euler has
// H = αC and D = G + gmin. Either way x' = x + A⁻¹(b + b' − D x) (b
// dropped for backward Euler): the per-step product runs on D, which
// holds no αC block and does not depend on the step size. On a PEEC(RLC)
// netlist that block is the dense αL of the mutual inductors.
type deltaWork struct {
	r, dx, scratch []float64
}

func newDeltaWork(size int) *deltaWork {
	return &deltaWork{r: make([]float64, size), dx: make([]float64, size), scratch: make([]float64, size)}
}

// step writes x + A⁻¹(bPrev + bNow − D x) into dst, f being the LU of A.
// bPrev is nil for backward Euler. dst may alias x.
func (w *deltaWork) step(dst []float64, f *matrix.SparseLU, d *matrix.CSR, x, bPrev, bNow []float64) error {
	d.MulVecTo(w.r, x)
	for i, dxi := range w.r {
		b := bNow[i]
		if bPrev != nil {
			b = bPrev[i] + b
		}
		w.r[i] = b - dxi
	}
	if err := f.SolveTo(w.dx, w.r, w.scratch); err != nil {
		return err
	}
	for i, v := range w.dx {
		dst[i] = x[i] + v
	}
	return nil
}

// tranSparse is the fixed-step transient of a linear netlist: the
// companion system assembled as triplets, factored by the sparse LU once
// and stepped in delta form (deltaWork) — nothing O(size^2) is ever
// built.
func tranSparse(n *circuit.Netlist, opt TranOptions) (*TranResult, error) {
	sm := circuit.BuildSparse(n)
	x0, err := opSparse(sm, 0, opt.Workers)
	if err != nil {
		return nil, err
	}
	size := sm.Size()
	h := opt.TStep
	alpha := opt.alpha()

	aLin := sparseGmin(sm).AddScaled(alpha, sm.C)
	f, err := matrix.FactorSparseLUWorkers(aLin.ToCSC(), opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("sim: singular transient system: %w", err)
	}
	dT := sparseGmin(sm)
	if opt.Method == Trapezoidal {
		dT.AddScaled(1, sm.G)
	}
	d := dT.ToCSR()

	steps := int(opt.TStop/h + 0.5)
	res := &TranResult{Netlist: n}
	x := matrix.CloneVec(x0)
	res.Times = append(res.Times, 0)
	res.States = append(res.States, matrix.CloneVec(x))

	var bPrev []float64
	if opt.Method == Trapezoidal {
		bPrev = make([]float64, size)
		sm.RHS(0, bPrev)
	}
	bNow := make([]float64, size)
	w := newDeltaWork(size)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		sm.RHS(t, bNow)
		if err := w.step(x, f, d, x, bPrev, bNow); err != nil {
			return nil, err
		}
		if bPrev != nil {
			bPrev, bNow = bNow, bPrev
		}
		if k%opt.SaveEvery == 0 || k == steps {
			res.Times = append(res.Times, t)
			res.States = append(res.States, matrix.CloneVec(x))
		}
	}
	return res, nil
}
