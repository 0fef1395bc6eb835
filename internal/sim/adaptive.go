package sim

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// AdaptiveOptions configures local-truncation-error-controlled
// transient analysis: the production-SPICE feature that makes long
// simulations of stiff grids practical (fine steps through edges,
// coarse steps through settling tails).
type AdaptiveOptions struct {
	TStop float64
	// HInit, HMin, HMax bound the step size (defaults: TStop/1e3,
	// TStop/1e7, TStop/50).
	HInit, HMin, HMax float64
	// Tol is the per-step local error target (infinity norm, volts/
	// amps; default 1e-4).
	Tol float64
	// Everything else follows TranOptions semantics.
	MaxNewton int
	NewtonTol float64
	Gmin      float64
	// Policy pins the run's solver resources (worker count, dense/sparse
	// switch-over). The zero value is the built-in default.
	Policy Policy
}

func (o *AdaptiveOptions) setDefaults() error {
	if o.TStop <= 0 {
		return fmt.Errorf("sim: TStop must be positive")
	}
	if o.HInit <= 0 {
		o.HInit = o.TStop / 1000
	}
	if o.HMin <= 0 {
		o.HMin = o.TStop / 1e7
	}
	if o.HMax <= 0 {
		o.HMax = o.TStop / 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 50
	}
	if o.NewtonTol <= 0 {
		o.NewtonTol = 1e-9
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	return nil
}

// stepper advances the trapezoidal companion system by one step of a
// given size, caching LU factors per step size for linear circuits.
type stepper struct {
	m      *circuit.MNA
	opt    AdaptiveOptions
	linear bool
	gmin   *matrix.Dense
	// factor cache: h -> (A = 2C/h + G factorized, Hist = 2C/h - G)
	cache map[float64]*stepFactor
	// Accepted/rejected step counters (cost accounting).
	accepted, rejected int
}

type stepFactor struct {
	lu   *matrix.LU
	aLin *matrix.Dense
	hist *matrix.Dense
}

func newStepper(m *circuit.MNA, opt AdaptiveOptions) *stepper {
	return &stepper{
		m: m, opt: opt,
		linear: len(m.N.MOSFETs) == 0,
		gmin:   applyGmin(m.G, m.N.NumNodes(), opt.Gmin),
		cache:  make(map[float64]*stepFactor),
	}
}

func (s *stepper) factors(h float64) (*stepFactor, error) {
	if f, ok := s.cache[h]; ok {
		return f, nil
	}
	alpha := 2 / h
	aLin := s.m.C.Clone().Scale(alpha).AddMat(s.gmin)
	hist := s.m.C.Clone().Scale(alpha).AddScaled(-1, s.m.G)
	f := &stepFactor{aLin: aLin, hist: hist}
	if s.linear {
		lu, err := matrix.FactorLUWorkers(aLin, s.opt.Policy.Workers)
		if err != nil {
			return nil, fmt.Errorf("sim: singular adaptive system at h=%g: %w", h, err)
		}
		f.lu = lu
	}
	// Bound the cache: step sizes are halved/doubled so only a few
	// distinct values occur; evict wholesale if something pathological
	// happens.
	if len(s.cache) > 64 {
		s.cache = make(map[float64]*stepFactor)
	}
	s.cache[h] = f
	return f, nil
}

// advance computes the state at t+h from (x, t) with trapezoidal
// integration (bPrev/fPrev are source and device currents at t).
func (s *stepper) advance(x, bPrev, fPrev []float64, t, h float64) ([]float64, error) {
	f, err := s.factors(h)
	if err != nil {
		return nil, err
	}
	size := s.m.Size()
	bNow := make([]float64, size)
	s.m.RHS(t+h, bNow)
	rhs := f.hist.MulVec(x)
	matrix.Axpy(1, bPrev, rhs)
	matrix.Axpy(1, fPrev, rhs)
	matrix.Axpy(1, bNow, rhs)
	if s.linear {
		return f.lu.Solve(rhs)
	}
	topt := TranOptions{MaxNewton: s.opt.MaxNewton, NewtonTol: s.opt.NewtonTol, Policy: s.opt.Policy}
	xn, _, err := newtonStep(s.m.N, f.aLin, rhs, x, topt)
	return xn, err
}

// sources returns b(t) and the nonlinear device currents f(x).
func (s *stepper) sources(t float64, x []float64) (b, fv []float64) {
	size := s.m.Size()
	b = make([]float64, size)
	s.m.RHS(t, b)
	fv = make([]float64, size)
	if !s.linear {
		deviceCurrents(s.m.N, x, fv)
	}
	return b, fv
}

// TranAdaptive runs an LTE-controlled transient: each step is computed
// once at h and once as two half steps; their difference estimates the
// local error (step doubling). Rejected steps halve h, comfortable
// steps grow it. The accepted solution is the more accurate two-half-
// step result.
func TranAdaptive(n *circuit.Netlist, opt AdaptiveOptions) (*TranResult, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	if useSparsePath(n, opt.Policy) {
		return tranAdaptiveSparse(n, opt)
	}
	m := circuit.Build(n)
	x0, err := OP(m, 0, TranOptions{MaxNewton: opt.MaxNewton, NewtonTol: opt.NewtonTol, Gmin: opt.Gmin, Policy: opt.Policy})
	if err != nil {
		return nil, err
	}
	s := newStepper(m, opt)
	res := &TranResult{Netlist: n}
	x := matrix.CloneVec(x0)
	t := 0.0
	res.Times = append(res.Times, 0)
	res.States = append(res.States, matrix.CloneVec(x))

	h := opt.HInit
	for t < opt.TStop {
		if t+h > opt.TStop {
			h = opt.TStop - t
		}
		b0, f0 := s.sources(t, x)
		// Full step.
		xFull, err := s.advance(x, b0, f0, t, h)
		if err != nil {
			return nil, err
		}
		// Two half steps.
		xHalf, err := s.advance(x, b0, f0, t, h/2)
		if err != nil {
			return nil, err
		}
		b1, f1 := s.sources(t+h/2, xHalf)
		xHalf2, err := s.advance(xHalf, b1, f1, t+h/2, h/2)
		if err != nil {
			return nil, err
		}
		errEst := matrix.NormInf(matrix.Sub(xFull, xHalf2))
		if errEst > opt.Tol && h > opt.HMin*(1+1e-12) {
			s.rejected++
			h = math.Max(h/2, opt.HMin)
			continue
		}
		s.accepted++
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
	res.Steps = &StepStats{Accepted: s.accepted, Rejected: s.rejected}
	return res, nil
}

// Interp linearly resamples a transient result onto the given time
// base, for comparing runs with different (e.g. adaptive) grids.
func Interp(r *TranResult, node string, times []float64) ([]float64, error) {
	v, err := r.V(node)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(times))
	j := 0
	for i, t := range times {
		for j+1 < len(r.Times) && r.Times[j+1] < t {
			j++
		}
		if j+1 >= len(r.Times) {
			out[i] = v[len(v)-1]
			continue
		}
		t0, t1 := r.Times[j], r.Times[j+1]
		if t <= t0 {
			out[i] = v[j]
			continue
		}
		f := (t - t0) / (t1 - t0)
		out[i] = v[j] + f*(v[j+1]-v[j])
	}
	return out, nil
}

// StepStats reports an adaptive run's cost counters.
type StepStats struct {
	Accepted, Rejected int
}
