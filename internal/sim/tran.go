package sim

import (
	"fmt"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// Tran runs a fixed-step transient analysis of the netlist from a DC
// operating point at t = 0. Linear netlists run on the sparse direct
// solver at every size; netlists with MOSFETs take the dense Newton
// engine of TranFrom, which restamps the device Jacobian each
// iteration.
func Tran(n *circuit.Netlist, opt TranOptions) (*TranResult, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	if len(n.MOSFETs) == 0 {
		return tranSparse(n, opt)
	}
	m := circuit.Build(n)
	x0, err := OP(m, 0, opt)
	if err != nil {
		return nil, err
	}
	return TranFrom(m, x0, opt)
}

// TranFrom runs a transient from a given initial state x0 (e.g. a
// previously computed operating point), using the already-assembled
// dense MNA. It is the Newton engine for netlists with MOSFETs; on a
// linear netlist it is the dense-LU reference the sparse path is
// tested against.
func TranFrom(m *circuit.MNA, x0 []float64, opt TranOptions) (*TranResult, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	n := m.N
	size := m.Size()
	if len(x0) != size {
		return nil, fmt.Errorf("sim: initial state length %d, want %d", len(x0), size)
	}
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
	aLin := m.C.Clone().Scale(alpha).AddMat(applyGmin(m.G, n.NumNodes(), opt.Gmin))
	hist := m.C.Clone().Scale(alpha)
	if opt.Method == Trapezoidal {
		hist.AddScaled(-1, m.G)
	}

	linear := len(n.MOSFETs) == 0
	var luLin *matrix.LU
	if linear {
		lu, err := matrix.FactorLUWorkers(aLin, opt.Policy.Workers)
		if err != nil {
			return nil, fmt.Errorf("sim: singular transient system: %w", err)
		}
		luLin = lu
	}

	steps := int(opt.TStop/h + 0.5)
	res := &TranResult{Netlist: n}
	save := func(t float64, x []float64) {
		res.Times = append(res.Times, t)
		res.States = append(res.States, matrix.CloneVec(x))
	}
	x := matrix.CloneVec(x0)
	save(0, x)

	bPrev := make([]float64, size)
	m.RHS(0, bPrev)
	fPrev := make([]float64, size)
	if !linear {
		deviceCurrents(n, x, fPrev)
	}
	bNow := make([]float64, size)
	// The history matvec is the per-step hot spot for linear systems;
	// reuse one scratch vector (MulVecTo also fans rows out across
	// workers for large systems) instead of allocating every step.
	rhsBase := make([]float64, size)

	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		m.RHS(t, bNow)
		hist.MulVecToWorkers(rhsBase, x, opt.Policy.Workers)
		if opt.Method == Trapezoidal {
			matrix.Axpy(1, bPrev, rhsBase)
			matrix.Axpy(1, fPrev, rhsBase)
		}
		matrix.Axpy(1, bNow, rhsBase)

		if linear {
			xNew, err := luLin.Solve(rhsBase)
			if err != nil {
				return nil, err
			}
			x = xNew
		} else {
			xNew, iters, err := newtonStep(n, aLin, rhsBase, x, opt)
			if err != nil {
				return nil, fmt.Errorf("sim: t=%g: %w", t, err)
			}
			res.NewtonIters += iters
			x = xNew
		}

		if opt.Method == Trapezoidal {
			copy(bPrev, bNow)
			if !linear {
				for i := range fPrev {
					fPrev[i] = 0
				}
				deviceCurrents(n, x, fPrev)
			}
		}
		if k%opt.SaveEvery == 0 || k == steps {
			save(t, x)
		}
	}
	return res, nil
}

// newtonStep solves aLin*x = rhsBase + f_lin(x) by Newton iteration,
// starting from guess x0.
func newtonStep(n *circuit.Netlist, aLin *matrix.Dense, rhsBase, x0 []float64, opt TranOptions) ([]float64, int, error) {
	x := matrix.CloneVec(x0)
	for it := 1; it <= opt.MaxNewton; it++ {
		a := aLin.Clone()
		rhs := matrix.CloneVec(rhsBase)
		stampDevices(n, x, a, rhs)
		xNew, err := solveDensePolicy(a, rhs, opt.Policy)
		if err != nil {
			return nil, it, fmt.Errorf("singular Newton system: %w", err)
		}
		worst := matrix.NormInf(matrix.Sub(xNew, x))
		x = xNew
		if worst < opt.NewtonTol {
			return x, it, nil
		}
	}
	return nil, opt.MaxNewton, fmt.Errorf("Newton did not converge in %d iterations", opt.MaxNewton)
}
