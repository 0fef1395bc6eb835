package sim

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// Tran runs a fixed-step transient analysis of the netlist from a DC
// operating point at t = 0, on the sparse MNA at every size. Linear
// netlists factor the companion matrix once (tranSparse); netlists with
// MOSFETs run Newton on one fixed sparse pattern (tranNewton).
func Tran(n *circuit.Netlist, opt TranOptions) (*TranResult, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	if len(n.MOSFETs) == 0 {
		return tranSparse(n, opt)
	}
	return tranNewton(n, opt)
}

// tranNewton is the transient of a netlist with MOSFETs. Each step
// solves the companion system
//
//	A x' = H x + b + b' + f(x) + f(x')   (trapezoidal)
//	A x' = αC x + b' + f(x')             (backward Euler)
//
// with A = αC + G + gmin and H = αC − G by undamped Newton on the
// sparse LU, f being the device currents.
func tranNewton(n *circuit.Netlist, opt TranOptions) (*TranResult, error) {
	sm := circuit.BuildSparse(n)
	x0, err := opNewton(sm)
	if err != nil {
		return nil, err
	}
	size := sm.Size()
	h := opt.TStep
	alpha := opt.alpha()
	trap := opt.Method == Trapezoidal
	s := newNewtonSystem(n, companion(sm, alpha))
	hist := matrix.CSCToCSR(circuit.Derive(sm, false, func(_, _ int, g, c float64) float64 {
		v := alpha * c
		if trap {
			v -= g // H = αC − G
		}
		return v
	}))

	steps := int(opt.TStop/h + 0.5)
	res := &TranResult{Netlist: n}
	x := matrix.CloneVec(x0)
	res.Times = append(res.Times, 0)
	res.States = append(res.States, matrix.CloneVec(x))

	bPrev := make([]float64, size)
	fPrev := make([]float64, size)
	sm.RHS(0, bPrev)
	deviceCurrents(n, x, fPrev)
	bNow := make([]float64, size)
	rhs := make([]float64, size)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		sm.RHS(t, bNow)
		hist.MulVecTo(rhs, x)
		if trap {
			matrix.Axpy(1, bPrev, rhs)
			matrix.Axpy(1, fPrev, rhs)
		}
		matrix.Axpy(1, bNow, rhs)
		iters, err := s.newton(x, rhs, math.Inf(1))
		res.NewtonIters += iters
		if err != nil {
			return nil, fmt.Errorf("sim: t=%g: %w", t, err)
		}
		if trap {
			bPrev, bNow = bNow, bPrev
			for i := range fPrev {
				fPrev[i] = 0
			}
			deviceCurrents(n, x, fPrev)
		}
		if k%opt.SaveEvery == 0 || k == steps {
			res.Times = append(res.Times, t)
			res.States = append(res.States, matrix.CloneVec(x))
		}
	}
	return res, nil
}
