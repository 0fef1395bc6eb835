package sim

import (
	"fmt"
	"sort"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// stampDevices linearizes every MOSFET around state x, stamping the
// Jacobian through add and the Norton equivalent currents into rhs.
// add sees every non-ground stamp position of every device, whatever
// the bias, so one walk at any x lists the device pattern.
func stampDevices(n *circuit.Netlist, x []float64, add func(i, j int, v float64), rhs []float64) {
	vAt := func(node int) float64 {
		if node < 0 {
			return 0
		}
		return x[node]
	}
	addJ := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			add(i, j, v)
		}
	}
	addB := func(i int, v float64) {
		if i >= 0 {
			rhs[i] += v
		}
	}
	for i := range n.MOSFETs {
		m := &n.MOSFETs[i]
		vd, vg, vs := vAt(m.D), vAt(m.G), vAt(m.S)
		id, gm, gds := m.Eval(vd, vg, vs)
		// Linearization: id ≈ Ieq + gm*vgs + gds*vds.
		ieq := id - gm*(vg-vs) - gds*(vd-vs)
		addJ(m.D, m.D, gds)
		addJ(m.D, m.G, gm)
		addJ(m.D, m.S, -(gm + gds))
		addJ(m.S, m.D, -gds)
		addJ(m.S, m.G, -gm)
		addJ(m.S, m.S, gm+gds)
		// Current id leaves node D and enters node S.
		addB(m.D, -ieq)
		addB(m.S, ieq)
	}
}

// deviceCurrents accumulates the nonlinear device injection vector f(x)
// into b (the right-hand-side convention of C x' + G x = b + f).
func deviceCurrents(n *circuit.Netlist, x []float64, b []float64) {
	vAt := func(node int) float64 {
		if node < 0 {
			return 0
		}
		return x[node]
	}
	for i := range n.MOSFETs {
		m := &n.MOSFETs[i]
		id, _, _ := m.Eval(vAt(m.D), vAt(m.G), vAt(m.S))
		if m.D >= 0 {
			b[m.D] -= id
		}
		if m.S >= 0 {
			b[m.S] += id
		}
	}
}

// newtonSystem is the Newton matrix of a netlist with MOSFETs on one
// fixed sparse pattern: the linear part plus a slot at every position a
// device stamps. Each iteration copies the linear values, stamps the
// devices into their slots and refactors over the one symbolic
// analysis; an error or pivot drift falls back to a fresh factor.
type newtonSystem struct {
	n       *circuit.Netlist
	a       *matrix.CSC // the pattern over vals
	base    []float64   // the linear part's values
	vals    []float64
	lu      *matrix.SparseLU
	rhs     []float64
	next    []float64 // the iteration's solution
	scratch []float64
}

// newNewtonSystem builds the fixed pattern of lin (the linear part)
// plus the device slots of n.
func newNewtonSystem(n *circuit.Netlist, lin *matrix.CSC) *newtonSystem {
	size := lin.Rows()
	pt := matrix.NewTriplet(size, size)
	mark := func(i, j int, _ float64) { pt.Add(i, j, 1) }
	lin.Each(mark)
	stampDevices(n, make([]float64, size), mark, make([]float64, size))
	pat := pt.ToCSC()
	s := &newtonSystem{
		n:       n,
		base:    make([]float64, pat.NNZ()),
		vals:    make([]float64, pat.NNZ()),
		rhs:     make([]float64, size),
		next:    make([]float64, size),
		scratch: make([]float64, size),
	}
	s.a = pat.WithValues(s.vals)
	lin.Each(func(i, j int, v float64) { s.base[s.slot(i, j)] = v })
	return s
}

// slot returns the index of pattern position (i, j) in vals.
func (s *newtonSystem) slot(i, j int) int {
	colPtr, rowIdx := s.a.Pattern()
	lo := colPtr[j]
	return lo + sort.SearchInts(rowIdx[lo:colPtr[j+1]], i)
}

// solve solves the system linearized at x — the linear part plus the
// device Jacobian, against rhs plus the devices' Norton currents —
// into dst.
func (s *newtonSystem) solve(dst, x, rhs []float64) error {
	copy(s.vals, s.base)
	copy(s.rhs, rhs)
	stampDevices(s.n, x, func(i, j int, v float64) { s.vals[s.slot(i, j)] += v }, s.rhs)
	if s.lu == nil || s.lu.Refactor(s.a) != nil {
		lu, err := matrix.FactorSparseLU(s.a)
		if err != nil {
			return err
		}
		s.lu = lu
	}
	return s.lu.SolveTo(dst, s.rhs, s.scratch)
}

// newton runs Newton from x in place until the largest update is below
// newtonTol, limiting each unknown's update to maxStep, and returns
// the iterations taken.
func (s *newtonSystem) newton(x, rhs []float64, maxStep float64) (int, error) {
	for it := 1; it <= maxNewton; it++ {
		if err := s.solve(s.next, x, rhs); err != nil {
			return it, fmt.Errorf("singular Newton system: %w", err)
		}
		worst := 0.0
		for i, v := range s.next {
			d := v - x[i]
			if d > maxStep {
				d = maxStep
			} else if d < -maxStep {
				d = -maxStep
			}
			x[i] += d
			if ad := abs(d); ad > worst {
				worst = ad
			}
		}
		if worst < newtonTol {
			return it, nil
		}
	}
	return maxNewton, fmt.Errorf("Newton did not converge in %d iterations", maxNewton)
}

// opNewton computes the DC operating point of a netlist with MOSFETs
// (capacitors open, inductors short, sources at t = 0). Newton limits
// every update to 1 V, which keeps the quadratic device model honest
// far from the solution; gmin keeps floating nodes bounded.
func opNewton(sm *circuit.SparseMNA) ([]float64, error) {
	s := newNewtonSystem(sm.N, gGmin(sm))
	b := make([]float64, sm.Size())
	sm.RHS(0, b)
	x := make([]float64, sm.Size())
	if _, err := s.newton(x, b, 1); err != nil {
		return nil, fmt.Errorf("sim: DC operating point: %w", err)
	}
	return x, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
