package sim

import (
	"fmt"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// The dense oracles the sparse engine is checked against. They assemble
// the MNA through BuildSparse and ToDense, which accumulates every stamp
// in the same order as the sparse assembly, so both sides start from
// bit-identical G and C; only the LU differs.

// denseMNA is the dense view of a netlist's MNA.
type denseMNA struct {
	sm   *circuit.SparseMNA
	g, c *matrix.Dense
}

func buildDense(n *circuit.Netlist) *denseMNA {
	sm := circuit.BuildSparse(n)
	return &denseMNA{sm: sm, g: sm.G.ToDense(), c: sm.C.ToDense()}
}

// gGmin returns G + gmin on the node diagonals, as a copy.
func (m *denseMNA) gGmin() *matrix.Dense {
	out := m.g.Clone()
	for i := 0; i < m.sm.N.NumNodes(); i++ {
		out.Add(i, i, gmin)
	}
	return out
}

// denseSolve factors a by the dense LU and solves for b.
func denseSolve(a *matrix.Dense, b []float64, workers int) ([]float64, error) {
	f, err := matrix.FactorLUWorkers(a, workers)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// denseOP is the dense oracle of the DC operating point: a direct solve
// for a linear netlist, the 1 V-damped Newton loop otherwise. opt must
// carry its defaults.
func denseOP(m *denseMNA, opt TranOptions) ([]float64, error) {
	n := m.sm.N
	base := m.gGmin()
	b0 := make([]float64, m.sm.Size())
	m.sm.RHS(0, b0)
	if len(n.MOSFETs) == 0 {
		return denseSolve(base, b0, opt.Workers)
	}
	x := make([]float64, len(b0))
	for it := 0; it < maxNewton; it++ {
		a := base.Clone()
		rhs := matrix.CloneVec(b0)
		stampDevices(n, x, a.Add, rhs)
		xNew, err := denseSolve(a, rhs, opt.Workers)
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for i := range x {
			d := xNew[i] - x[i]
			if d > 1 {
				d = 1
			} else if d < -1 {
				d = -1
			}
			x[i] += d
			if ad := abs(d); ad > worst {
				worst = ad
			}
		}
		if worst < newtonTol {
			return x, nil
		}
	}
	return nil, fmt.Errorf("dense DC operating point did not converge in %d iterations", maxNewton)
}

// denseNewton solves aLin x = rhsBase + f(x) by undamped Newton from x0.
func denseNewton(n *circuit.Netlist, aLin *matrix.Dense, rhsBase, x0 []float64, opt TranOptions) ([]float64, int, error) {
	x := matrix.CloneVec(x0)
	for it := 1; it <= maxNewton; it++ {
		a := aLin.Clone()
		rhs := matrix.CloneVec(rhsBase)
		stampDevices(n, x, a.Add, rhs)
		xNew, err := denseSolve(a, rhs, opt.Workers)
		if err != nil {
			return nil, it, err
		}
		worst := matrix.NormInf(matrix.Sub(xNew, x))
		x = xNew
		if worst < newtonTol {
			return x, it, nil
		}
	}
	return nil, maxNewton, fmt.Errorf("dense Newton did not converge in %d iterations", maxNewton)
}

// denseTran is the dense oracle of Tran: the dense operating point, then
// the companion integration A x' = H x + b + b' (+ f + f' for the
// trapezoidal rule) with A = αC + G + gmin and H = αC − G (trapezoidal)
// or αC (backward Euler), every step solved by the dense LU.
func denseTran(n *circuit.Netlist, opt TranOptions) (*TranResult, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	m := buildDense(n)
	x0, err := denseOP(m, opt)
	if err != nil {
		return nil, err
	}
	h := opt.TStep
	alpha := opt.alpha()
	aLin := m.c.Clone().Scale(alpha).AddMat(m.gGmin())
	hist := m.c.Clone().Scale(alpha)
	if opt.Method == Trapezoidal {
		hist.AddScaled(-1, m.g)
	}
	size := m.sm.Size()
	steps := int(opt.TStop/h + 0.5)
	res := &TranResult{Netlist: n}
	x := matrix.CloneVec(x0)
	res.Times = append(res.Times, 0)
	res.States = append(res.States, matrix.CloneVec(x))
	bPrev := make([]float64, size)
	m.sm.RHS(0, bPrev)
	fPrev := make([]float64, size)
	deviceCurrents(n, x, fPrev)
	bNow := make([]float64, size)
	var lu *matrix.LU
	if len(n.MOSFETs) == 0 {
		if lu, err = matrix.FactorLUWorkers(aLin, opt.Workers); err != nil {
			return nil, err
		}
	}
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		m.sm.RHS(t, bNow)
		rhs := hist.MulVec(x)
		if opt.Method == Trapezoidal {
			matrix.Axpy(1, bPrev, rhs)
			matrix.Axpy(1, fPrev, rhs)
		}
		matrix.Axpy(1, bNow, rhs)
		if lu != nil {
			if x, err = lu.Solve(rhs); err != nil {
				return nil, err
			}
		} else {
			xNew, iters, err := denseNewton(n, aLin, rhs, x, opt)
			if err != nil {
				return nil, fmt.Errorf("t=%g: %w", t, err)
			}
			res.NewtonIters += iters
			x = xNew
		}
		copy(bPrev, bNow)
		for i := range fPrev {
			fPrev[i] = 0
		}
		deviceCurrents(n, x, fPrev)
		if k%opt.SaveEvery == 0 || k == steps {
			res.Times = append(res.Times, t)
			res.States = append(res.States, matrix.CloneVec(x))
		}
	}
	return res, nil
}

// denseAC is the dense oracle of the AC solve: G + jωC, with gmin on
// the node diagonals, solved by the dense complex LU.
func denseAC(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
	m := buildDense(n)
	size := m.sm.Size()
	a := matrix.NewCDense(size, size)
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			a.Set(i, j, complex(m.g.At(i, j), omega*m.c.At(i, j)))
		}
	}
	for i := 0; i < n.NumNodes(); i++ {
		a.Add(i, i, gmin)
	}
	b := make([]complex128, size)
	for vi, amp := range stim.VSourceAmps {
		b[n.BranchOfVSource(vi)] += amp
	}
	for ii, amp := range stim.ISourceAmps {
		s := n.ISources[ii]
		if s.A >= 0 {
			b[s.A] -= amp
		}
		if s.B >= 0 {
			b[s.B] += amp
		}
	}
	return matrix.SolveComplex(a, b)
}
