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
// inductors and voltage sources). G and C are frozen once, by
// BuildSparse, onto one CSC pattern: the union of their stamps (zero
// sums included) and the node diagonals, where gmin goes. Every analysis
// matrix is derived from that pattern position by position (Derive).
// The value is immutable and safe to share between goroutines.
type SparseMNA struct {
	N              *Netlist
	colPtr, rowIdx []int
	g, c           []float64 // G's and C's sums over the pattern, 0 where absent
	size           int
}

// BuildSparse assembles the sparse MNA matrices for the netlist's
// linear elements. MOSFETs are not stamped here — the simulator
// linearizes them per Newton iteration.
func BuildSparse(n *Netlist) *SparseMNA {
	size := n.Size()
	g, c := matrix.NewTriplet(size, size), matrix.NewTriplet(size, size)
	stampLinear(n, g.Add, c.Add, kMembers(n))
	colPtr, rowIdx, vals := matrix.FreezeUnion(n.NumNodes(), g, c)
	return &SparseMNA{N: n, colPtr: colPtr, rowIdx: rowIdx, g: vals[0], c: vals[1], size: size}
}

// Derive returns the Size() x Size() CSC matrix whose entry at each
// position (i, j) of m's pattern is f(i, j, g, c), g and c being G's and
// C's entries there (0 where one has none). Entries equal to zero are
// dropped, as Triplet.ToCSC drops them, unless keepZeros is set. f runs
// once per position, column by column, so a companion matrix such as
// G + gmin + αC is one expression, (g + gmin) + α·c, summed in that
// order.
func Derive[T matrix.Scalar](m *SparseMNA, keepZeros bool, f func(i, j int, g, c float64) T) *matrix.CSCOf[T] {
	colPtr := make([]int, m.size+1)
	rowIdx := make([]int, 0, len(m.rowIdx))
	val := make([]T, 0, len(m.rowIdx))
	for j := 0; j < m.size; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			i := m.rowIdx[p]
			if v := f(i, j, m.g[p], m.c[p]); v != 0 || keepZeros {
				rowIdx, val = append(rowIdx, i), append(val, v)
			}
		}
		colPtr[j+1] = len(val)
	}
	return matrix.CSCFromParts(m.size, m.size, colPtr, rowIdx, val)
}

// WithGmin returns g plus gmin when (i, j) is a node voltage's diagonal
// and g elsewhere: the entry of G + gmin·I(nodes) at (i, j).
func (m *SparseMNA) WithGmin(i, j int, g, gmin float64) float64 {
	if i == j && i < m.N.NumNodes() {
		return g + gmin
	}
	return g
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
