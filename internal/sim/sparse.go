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

// tranSparse is the sparse fixed-step transient: identical companion
// integration to TranFrom's linear path, but the system is assembled as
// triplets, factored by the sparse LU, and the history matvec runs on a
// CSR — nothing O(size^2) is ever built.
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

	// A_lin = alpha*C + G (+gmin); Hist = alpha*C - G (trap) or alpha*C (BE).
	aLin := sparseGmin(sm, opt.Gmin).AddScaled(alpha, sm.C)
	f, err := matrix.FactorSparseLUWorkers(aLin.ToCSC(), opt.Policy.Workers)
	if err != nil {
		return nil, fmt.Errorf("sim: singular transient system: %w", err)
	}
	histT := matrix.NewTriplet(size, size).AddScaled(alpha, sm.C)
	if opt.Method == Trapezoidal {
		histT.AddScaled(-1, sm.G)
	}
	hist := histT.ToCSR()

	steps := int(opt.TStop/h + 0.5)
	res := &TranResult{Netlist: n}
	x := matrix.CloneVec(x0)
	res.Times = append(res.Times, 0)
	res.States = append(res.States, matrix.CloneVec(x))

	bPrev := make([]float64, size)
	sm.RHS(0, bPrev)
	bNow := make([]float64, size)
	rhsBase := make([]float64, size)
	scratch := make([]float64, size)
	xNew := make([]float64, size)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		sm.RHS(t, bNow)
		hist.MulVecTo(rhsBase, x)
		if opt.Method == Trapezoidal {
			matrix.Axpy(1, bPrev, rhsBase)
		}
		matrix.Axpy(1, bNow, rhsBase)
		if err := f.SolveTo(xNew, rhsBase, scratch); err != nil {
			return nil, err
		}
		x, xNew = xNew, x
		if opt.Method == Trapezoidal {
			copy(bPrev, bNow)
		}
		if k%opt.SaveEvery == 0 || k == steps {
			res.Times = append(res.Times, t)
			res.States = append(res.States, matrix.CloneVec(x))
		}
	}
	return res, nil
}

// sparseStepper is the adaptive stepper for linear netlists: per-step-
// size numeric factorizations share the symbolic pattern of the first
// factored step size and refactor numerically; only a pattern change or
// pivot drift falls back to a fresh analysis.
type sparseStepper struct {
	sm      *circuit.SparseMNA
	gminG   *matrix.Triplet // G + gmin
	cache   map[float64]*sparseStepFactor
	sym     *matrix.SparseLU // symbolic donor from the first factorization
	workers int              // Refactor/factor worker count; 0 = process default
	// refreshed counts fresh re-analyses forced by drift/pattern change.
	refreshed int
}

type sparseStepFactor struct {
	lu   *matrix.SparseLU
	hist *matrix.CSR
}

func newSparseStepper(sm *circuit.SparseMNA, gmin float64, workers int) *sparseStepper {
	return &sparseStepper{
		sm:      sm,
		gminG:   sparseGmin(sm, gmin),
		cache:   make(map[float64]*sparseStepFactor),
		workers: workers,
	}
}

func (s *sparseStepper) factors(h float64) (*sparseStepFactor, error) {
	if f, ok := s.cache[h]; ok {
		return f, nil
	}
	alpha := 2 / h
	size := s.sm.Size()
	a := matrix.NewTriplet(size, size).AddScaled(1, s.gminG).AddScaled(alpha, s.sm.C).ToCSC()
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
	hist := matrix.NewTriplet(size, size).AddScaled(alpha, s.sm.C).AddScaled(-1, s.sm.G).ToCSR()
	f := &sparseStepFactor{lu: lu, hist: hist}
	if len(s.cache) > 64 {
		s.cache = make(map[float64]*sparseStepFactor)
	}
	s.cache[h] = f
	return f, nil
}

func (s *sparseStepper) advance(x, bPrev []float64, t, h float64) ([]float64, error) {
	f, err := s.factors(h)
	if err != nil {
		return nil, err
	}
	size := s.sm.Size()
	bNow := make([]float64, size)
	s.sm.RHS(t+h, bNow)
	rhs := make([]float64, size)
	f.hist.MulVecTo(rhs, x)
	matrix.Axpy(1, bPrev, rhs)
	matrix.Axpy(1, bNow, rhs)
	return f.lu.Solve(rhs)
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
	accepted, rejected := 0, 0
	h := opt.HInit
	for t < opt.TStop {
		if t+h > opt.TStop {
			h = opt.TStop - t
		}
		sm.RHS(t, b0)
		xFull, err := s.advance(x, b0, t, h)
		if err != nil {
			return nil, err
		}
		xHalf, err := s.advance(x, b0, t, h/2)
		if err != nil {
			return nil, err
		}
		sm.RHS(t+h/2, b1)
		xHalf2, err := s.advance(xHalf, b1, t+h/2, h/2)
		if err != nil {
			return nil, err
		}
		errEst := matrix.NormInf(matrix.Sub(xFull, xHalf2))
		if errEst > opt.Tol && h > opt.HMin*(1+1e-12) {
			rejected++
			h = math.Max(h/2, opt.HMin)
			continue
		}
		accepted++
		t += h
		x = xHalf2
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
