package circuit

import (
	"fmt"

	"inductance101/internal/matrix"
)

// BuildSparseDC assembles the sparse nodal DC system G v = b of a
// resistive netlist, the form large power-grid IR-drop analysis runs on
// (SPD, so conjugate gradients apply — the iterative counterpart of the
// Cholesky solve the paper's combined technique uses).
//
// Element handling at DC:
//   - resistors stamp conductance;
//   - inductors are DC shorts, stamped as a stiff conductance;
//   - capacitors are DC opens, skipped;
//   - current sources evaluate at t0 into the RHS;
//   - voltage sources are enforced by the penalty method (a stiff
//     conductance to the source value), which keeps the system SPD;
//   - MOSFETs are rejected — linearize them or run sim.Tran.
//
// gmin grounds every node; stiff is the penalty conductance (defaults
// 1e-12 and 1e6 when zero).
func BuildSparseDC(n *Netlist, t0, gmin, stiff float64) (*matrix.Triplet, []float64, error) {
	if len(n.MOSFETs) > 0 {
		return nil, nil, fmt.Errorf("circuit: sparse DC build does not support MOSFETs (use sim.Tran)")
	}
	if gmin <= 0 {
		gmin = 1e-12
	}
	if stiff <= 0 {
		stiff = 1e6
	}
	nn := n.NumNodes()
	g := matrix.NewTriplet(nn, nn)
	b := make([]float64, nn)
	stamp := func(a, c int, v float64) {
		if a >= 0 {
			g.Add(a, a, v)
		}
		if c >= 0 {
			g.Add(c, c, v)
		}
		if a >= 0 && c >= 0 {
			g.Add(a, c, -v)
			g.Add(c, a, -v)
		}
	}
	for i := range n.Resistors {
		r := &n.Resistors[i]
		stamp(r.A, r.B, 1/r.R)
	}
	for i := range n.Inductors {
		l := &n.Inductors[i]
		stamp(l.A, l.B, stiff)
	}
	for i := range n.ISources {
		s := &n.ISources[i]
		v := s.Wave.At(t0)
		if s.A >= 0 {
			b[s.A] -= v
		}
		if s.B >= 0 {
			b[s.B] += v
		}
	}
	for i := range n.VSources {
		s := &n.VSources[i]
		v := s.Wave.At(t0)
		// Penalty: a stiff conductance pulling (A - B) toward v.
		stamp(s.A, s.B, stiff)
		if s.A >= 0 {
			b[s.A] += stiff * v
		}
		if s.B >= 0 {
			b[s.B] -= stiff * v
		}
	}
	for i := 0; i < nn; i++ {
		g.Add(i, i, gmin)
	}
	return g, b, nil
}

// SparseMNA is the assembled modified-nodal-analysis description of the
// linear part of a netlist,
//
//	C dx/dt + G x = b(t) + (nonlinear device currents),
//
// with x = [node voltages; branch currents] (branch currents exist for
// inductors and voltage sources), G and C held as triplet builders.
type SparseMNA struct {
	N    *Netlist
	G    *matrix.Triplet
	C    *matrix.Triplet
	size int
}

// BuildSparse assembles the sparse MNA matrices for the netlist's
// linear elements. MOSFETs are not stamped here — the simulator
// linearizes them per Newton iteration.
func BuildSparse(n *Netlist) *SparseMNA {
	size := n.Size()
	m := &SparseMNA{
		N:    n,
		G:    matrix.NewTriplet(size, size),
		C:    matrix.NewTriplet(size, size),
		size: size,
	}
	stampLinear(n, m.G.Add, m.C.Add, kMembers(n))
	return m
}

// Size returns the MNA system dimension.
func (m *SparseMNA) Size() int { return m.size }

// RHS fills b with the independent-source vector at time t. b must have
// length Size().
func (m *SparseMNA) RHS(t float64, b []float64) {
	for i := range b {
		b[i] = 0
	}
	m.AddRHS(t, b)
}

// AddRHS accumulates the independent-source vector at time t into b.
func (m *SparseMNA) AddRHS(t float64, b []float64) {
	n := m.N
	nn := n.NumNodes()
	for i := range n.ISources {
		s := &n.ISources[i]
		v := s.Wave.At(t)
		if s.A != groundIndex {
			b[s.A] -= v
		}
		if s.B != groundIndex {
			b[s.B] += v
		}
	}
	for i := range n.VSources {
		s := &n.VSources[i]
		b[nn+s.Branch] += s.Wave.At(t)
	}
}
