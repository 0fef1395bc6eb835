package sim

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// sparseGmin returns G + gmin*I(nodes) as a fresh triplet — the sparse
// twin of applyGmin.
func sparseGmin(sm *circuit.SparseMNA, gmin float64) *matrix.Triplet {
	size := sm.Size()
	g := matrix.NewTriplet(size, size).AddScaled(1, sm.G)
	for i := 0; i < sm.N.NumNodes(); i++ {
		g.Add(i, i, gmin)
	}
	return g
}

// opSparse computes the DC operating point of a linear netlist with the
// sparse LU (capacitors open, inductors short, sources at t0).
func opSparse(sm *circuit.SparseMNA, t0, gmin float64, workers int) ([]float64, error) {
	if gmin <= 0 {
		gmin = 1e-12
	}
	f, err := matrix.FactorSparseLUWorkers(sparseGmin(sm, gmin).ToCSC(), workers)
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

// tranSparse is the sparse fixed-step transient: the companion
// integration of TranFrom's linear path, assembled as triplets, factored
// by the sparse LU once and stepped in delta form (deltaWork) — nothing
// O(size^2) is ever built.
func tranSparse(n *circuit.Netlist, opt TranOptions) (*TranResult, error) {
	sm := circuit.BuildSparse(n)
	x0, err := opSparse(sm, 0, opt.Gmin, opt.Policy.Workers)
	if err != nil {
		return nil, err
	}
	size := sm.Size()
	h := opt.TStep
	var alpha float64
	switch opt.Method {
	case Trapezoidal:
		alpha = 2 / h
	case BackwardEuler:
		alpha = 1 / h
	default:
		return nil, fmt.Errorf("sim: unknown method %d", opt.Method)
	}

	aLin := sparseGmin(sm, opt.Gmin).AddScaled(alpha, sm.C)
	f, err := matrix.FactorSparseLUWorkers(aLin.ToCSC(), opt.Policy.Workers)
	if err != nil {
		return nil, fmt.Errorf("sim: singular transient system: %w", err)
	}
	dT := sparseGmin(sm, opt.Gmin)
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

// sparseStepper is the adaptive trapezoidal stepper for linear
// netlists, in delta form: D = 2G + gmin is shared by every step size,
// and per-step-size factorizations of A share the symbolic pattern of
// the first factored step size and refactor numerically; only a pattern
// change or pivot drift falls back to a fresh analysis.
type sparseStepper struct {
	sm      *circuit.SparseMNA
	gminG   *matrix.Triplet // G + gmin
	d       *matrix.CSR     // 2G + gmin
	cache   map[float64]*matrix.SparseLU
	sym     *matrix.SparseLU // symbolic donor from the first factorization
	workers int              // Refactor/factor worker count; 0 = process default
	bNow    []float64
	work    *deltaWork
	// refreshed counts fresh re-analyses forced by drift/pattern change.
	refreshed int
}

func newSparseStepper(sm *circuit.SparseMNA, gmin float64, workers int) *sparseStepper {
	size := sm.Size()
	return &sparseStepper{
		sm:      sm,
		gminG:   sparseGmin(sm, gmin),
		d:       sparseGmin(sm, gmin).AddScaled(1, sm.G).ToCSR(),
		cache:   make(map[float64]*matrix.SparseLU),
		workers: workers,
		bNow:    make([]float64, size),
		work:    newDeltaWork(size),
	}
}

func (s *sparseStepper) factors(h float64) (*matrix.SparseLU, error) {
	if f, ok := s.cache[h]; ok {
		return f, nil
	}
	size := s.sm.Size()
	a := matrix.NewTriplet(size, size).AddScaled(1, s.gminG).AddScaled(2/h, s.sm.C).ToCSC()
	var lu *matrix.SparseLU
	if s.sym != nil {
		cand := s.sym.NewNumeric()
		if err := cand.Refactor(a); err == nil {
			lu = cand
		}
	}
	if lu == nil {
		fresh, err := matrix.FactorSparseLUWorkers(a, s.workers)
		if err != nil {
			return nil, fmt.Errorf("sim: singular adaptive system at h=%g: %w", h, err)
		}
		if s.sym != nil {
			s.refreshed++
		}
		s.sym = fresh
		lu = fresh
	}
	if len(s.cache) > 64 {
		s.cache = make(map[float64]*matrix.SparseLU)
	}
	s.cache[h] = lu
	return lu, nil
}

// advance writes into dst the state at t+h from x at t (bPrev = b(t)).
// dst must not alias bPrev.
func (s *sparseStepper) advance(dst, x, bPrev []float64, t, h float64) error {
	f, err := s.factors(h)
	if err != nil {
		return err
	}
	s.sm.RHS(t+h, s.bNow)
	return s.work.step(dst, f, s.d, x, bPrev, s.bNow)
}

// tranAdaptiveSparse mirrors TranAdaptive's step-doubling control loop
// on the sparse stepper (linear netlists only, so the device-current
// vector is identically zero and drops out).
func tranAdaptiveSparse(n *circuit.Netlist, opt AdaptiveOptions) (*TranResult, error) {
	sm := circuit.BuildSparse(n)
	x0, err := opSparse(sm, 0, opt.Gmin, opt.Policy.Workers)
	if err != nil {
		return nil, err
	}
	s := newSparseStepper(sm, opt.Gmin, opt.Policy.Workers)
	res := &TranResult{Netlist: n}
	x := matrix.CloneVec(x0)
	t := 0.0
	res.Times = append(res.Times, 0)
	res.States = append(res.States, matrix.CloneVec(x))

	size := sm.Size()
	b0 := make([]float64, size)
	b1 := make([]float64, size)
	xFull := make([]float64, size)
	xHalf := make([]float64, size)
	xHalf2 := make([]float64, size)
	accepted, rejected := 0, 0
	h := opt.HInit
	for t < opt.TStop {
		if t+h > opt.TStop {
			h = opt.TStop - t
		}
		sm.RHS(t, b0)
		if err := s.advance(xFull, x, b0, t, h); err != nil {
			return nil, err
		}
		if err := s.advance(xHalf, x, b0, t, h/2); err != nil {
			return nil, err
		}
		sm.RHS(t+h/2, b1)
		if err := s.advance(xHalf2, xHalf, b1, t+h/2, h/2); err != nil {
			return nil, err
		}
		errEst := 0.0
		for i, v := range xFull {
			if e := math.Abs(v - xHalf2[i]); e > errEst {
				errEst = e
			}
		}
		if errEst > opt.Tol && h > opt.HMin*(1+1e-12) {
			rejected++
			h = math.Max(h/2, opt.HMin)
			continue
		}
		accepted++
		t += h
		x, xHalf2 = xHalf2, x
		res.Times = append(res.Times, t)
		res.States = append(res.States, matrix.CloneVec(x))
		if errEst < opt.Tol/8 && h < opt.HMax {
			h = math.Min(h*2, opt.HMax)
		}
		if len(res.Times) > 10_000_000 {
			return nil, fmt.Errorf("sim: adaptive transient exceeded 1e7 points (tol too tight?)")
		}
	}
	res.Steps = &StepStats{Accepted: accepted, Rejected: rejected}
	return res, nil
}
