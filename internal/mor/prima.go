// Package mor implements PRIMA — the Passive Reduced-order Interconnect
// Macromodeling Algorithm of Odabasioglu, Celik & Pileggi (ICCAD 1997) —
// which the paper's combined acceleration technique pairs with
// block-diagonal sparsification: reduce the huge linear RLC part of the
// PEEC model to a small port macromodel, then simulate that.
//
// The variant here follows the paper's §4 refinements: excitation is
// applied only to the *active* ports (the switching driver), not to the
// passive sinks, which keeps the Krylov block narrow; sinks remain
// observable through the projection matrix V.
package mor

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// ReducedModel is the projected system
//
//	Cr x' + Gr x = Br u(t),   y = Lr^T x
//
// with x of dimension Order(). Br columns correspond to the active
// ports (current injections), Lr columns to the observation nodes.
type ReducedModel struct {
	Gr, Cr *matrix.Dense
	Br     *matrix.Dense
	Lr     *matrix.Dense
	// V is the n x q projection basis, for expanding reduced states
	// back to full MNA coordinates.
	V *matrix.Dense
}

// Order returns the reduced dimension q.
func (rm *ReducedModel) Order() int { return rm.Gr.Rows() }

// Options configures the reduction.
type Options struct {
	// Blocks is the number of block-Krylov iterations (moments matched
	// per port ~ Blocks). Default 6.
	Blocks int
	// Gmin regularizes G (default 1e-9; the reduction solves with G
	// repeatedly, so it needs a slightly stronger floor than transient).
	Gmin float64
	// DropTol deflates nearly dependent Krylov columns (default 1e-8).
	DropTol float64
}

func (o *Options) setDefaults() {
	if o.Blocks <= 0 {
		o.Blocks = 6
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-9
	}
	if o.DropTol <= 0 {
		o.DropTol = 1e-8
	}
}

// Port is a current-injection terminal pair: current enters at Plus and
// leaves at Minus. Use -1 (ground) for a single-ended port.
type Port struct {
	Plus, Minus int
}

// Reduce runs block-Arnoldi PRIMA on the sparse linear MNA system.
// activePorts are current-injection terminal pairs; observeNodes are
// MNA node indices (from Netlist.NodeIndex) whose voltages the reduced
// model reports. Both are checked before any factorization.
//
// The MNA is used in its PRIMA-compatible symmetrized form: branch-
// current rows are negated so that C becomes symmetric positive
// semidefinite (node caps and the inductance matrix on the diagonal
// blocks) and G + G^T is positive semidefinite — the structural
// precondition for PRIMA's passivity guarantee. G is factored once by
// the sparse LU; the Arnoldi products and the projections Gr = V^T G V,
// Cr = V^T C V run on CSR forms of the pencil, so nothing of size n x n
// is ever dense.
func Reduce(m *circuit.SparseMNA, activePorts []Port, observeNodes []int, opt Options) (*ReducedModel, error) {
	opt.setDefaults()
	if len(activePorts) == 0 {
		return nil, fmt.Errorf("mor: no active ports")
	}
	n := m.Size()
	nodes := m.N.NumNodes()
	terminal := func(i int) bool { return i >= -1 && i < nodes } // -1 is ground
	for _, p := range activePorts {
		if !terminal(p.Plus) || !terminal(p.Minus) || (p.Plus < 0 && p.Minus < 0) {
			return nil, fmt.Errorf("mor: active port %+v not a node pair", p)
		}
	}
	for _, p := range observeNodes {
		if p < 0 || p >= nodes {
			return nil, fmt.Errorf("mor: observation node %d not a node index", p)
		}
	}

	// Symmetrized pencil: flip branch rows, gmin on the node diagonal.
	flip := func(i int, v float64) float64 {
		if i >= nodes {
			return -v
		}
		return v
	}
	gc := circuit.Derive(m, false, func(i, j int, g, _ float64) float64 { return m.WithGmin(i, j, flip(i, g), opt.Gmin) })
	lu, err := matrix.FactorSparseLU(gc)
	if err != nil {
		return nil, fmt.Errorf("mor: G singular even with gmin: %w", err)
	}
	g := matrix.CSCToCSR(gc)
	c := matrix.CSCToCSR(circuit.Derive(m, false, func(i, _ int, _, c float64) float64 { return flip(i, c) }))

	// B: one column per active port.
	b := matrix.NewDense(n, len(activePorts))
	for k, p := range activePorts {
		if p.Plus >= 0 {
			b.Set(p.Plus, k, 1)
		}
		if p.Minus >= 0 {
			b.Set(p.Minus, k, -1)
		}
	}

	// Block Arnoldi: V0 = orth(G^-1 B); V_{k+1} = orth(G^-1 C V_k ⊥ V).
	x, err := solveCols(lu, b)
	if err != nil {
		return nil, err
	}
	v := matrix.OrthonormalizeColumns(x, nil, opt.DropTol)
	if v.Cols() == 0 {
		return nil, fmt.Errorf("mor: input block vanished (ports disconnected?)")
	}
	prev := v
	for k := 1; k < opt.Blocks; k++ {
		x, err = solveCols(lu, c.MulDense(prev))
		if err != nil {
			return nil, err
		}
		nv := matrix.OrthonormalizeColumns(x, v, opt.DropTol)
		if nv.Cols() == 0 {
			break // Krylov space exhausted
		}
		v = matrix.AppendColumns(v, nv)
		prev = nv
	}

	// Projections via MulTrans: V^T * X without materializing V^T.
	l := matrix.NewDense(n, len(observeNodes))
	for k, p := range observeNodes {
		l.Set(p, k, 1)
	}
	return &ReducedModel{
		Gr: v.MulTrans(g.MulDense(v)),
		Cr: v.MulTrans(c.MulDense(v)),
		Br: v.MulTrans(b),
		Lr: v.MulTrans(l),
		V:  v,
	}, nil
}

// solveCols returns G^-1 R, one sparse triangular solve pair per column.
func solveCols(lu *matrix.SparseLU, r *matrix.Dense) (*matrix.Dense, error) {
	n, k := r.Rows(), r.Cols()
	x := matrix.NewDense(n, k)
	col, sol, scratch := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := 0; j < k; j++ {
		for i := range col {
			col[i] = r.At(i, j)
		}
		if err := lu.SolveTo(sol, col, scratch); err != nil {
			return nil, err
		}
		for i, s := range sol {
			x.Set(i, j, s)
		}
	}
	return x, nil
}

// TransferAt evaluates the reduced transfer matrix
// H(jω) = Lr^T (Gr + jω Cr)^{-1} Br  (observations x ports), factoring
// Gr + jω Cr once and solving each port column over that factor.
func (rm *ReducedModel) TransferAt(omega float64) (*matrix.CDense, error) {
	q := rm.Order()
	a := matrix.NewCDense(q, q)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			a.Set(i, j, complex(rm.Gr.At(i, j), omega*rm.Cr.At(i, j)))
		}
	}
	lu, err := matrix.FactorComplexLU(a)
	if err != nil {
		return nil, err
	}
	p := rm.Br.Cols()
	o := rm.Lr.Cols()
	h := matrix.NewCDense(o, p)
	col := make([]complex128, q)
	x := make([]complex128, q)
	for pj := 0; pj < p; pj++ {
		for i := 0; i < q; i++ {
			col[i] = complex(rm.Br.At(i, pj), 0)
		}
		if err := lu.SolveTo(x, col); err != nil {
			return nil, err
		}
		for oi := 0; oi < o; oi++ {
			var s complex128
			for i := 0; i < q; i++ {
				s += complex(rm.Lr.At(i, oi), 0) * x[i]
			}
			h.Set(oi, pj, s)
		}
	}
	return h, nil
}

// TranResult is the reduced-model transient output.
type TranResult struct {
	Times   []float64
	Outputs [][]float64 // Outputs[k][observation]
}

// Tran integrates the reduced model with trapezoidal companion steps:
// u(t) returns the port current vector at time t.
func (rm *ReducedModel) Tran(u func(t float64) []float64, tStop, h float64) (*TranResult, error) {
	if tStop <= 0 || h <= 0 {
		return nil, fmt.Errorf("mor: bad transient range")
	}
	q := rm.Order()
	a := rm.Cr.Clone().Scale(2 / h).AddMat(rm.Gr)
	hist := rm.Cr.Clone().Scale(2/h).AddScaled(-1, rm.Gr)
	lu, err := matrix.FactorLU(a)
	if err != nil {
		return nil, fmt.Errorf("mor: reduced system singular: %w", err)
	}
	x := make([]float64, q)
	bu := func(t float64) []float64 {
		uv := u(t)
		if len(uv) != rm.Br.Cols() {
			panic(fmt.Sprintf("mor: u(t) length %d, want %d ports", len(uv), rm.Br.Cols()))
		}
		return rm.Br.MulVec(uv)
	}
	out := &TranResult{}
	record := func(t float64, x []float64) {
		y := rm.Lr.T().MulVec(x)
		out.Times = append(out.Times, t)
		out.Outputs = append(out.Outputs, y)
	}
	record(0, x)
	bPrev := bu(0)
	steps := int(tStop/h + 0.5)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		bNow := bu(t)
		rhs := hist.MulVec(x)
		matrix.Axpy(1, bPrev, rhs)
		matrix.Axpy(1, bNow, rhs)
		xn, err := lu.Solve(rhs)
		if err != nil {
			return nil, err
		}
		x = xn
		bPrev = bNow
		record(t, x)
	}
	return out, nil
}

// StableSpectrum checks (empirically) that the reduced pencil is stable:
// all generalized eigenvalue real parts non-positive, probed via the
// positive-real test det(Gr + jωCr) != 0 along the imaginary axis and a
// Cholesky audit of the symmetric parts. Returns an explanatory error
// when a precondition fails.
func (rm *ReducedModel) StableSpectrum() error {
	gs := rm.Gr.Clone().AddMat(rm.Gr.T()).Scale(0.5)
	if !psd(gs) {
		return fmt.Errorf("mor: symmetric part of Gr not PSD")
	}
	cs := rm.Cr.Clone().AddMat(rm.Cr.T()).Scale(0.5)
	if !psd(cs) {
		return fmt.Errorf("mor: symmetric part of Cr not PSD")
	}
	return nil
}

func psd(a *matrix.Dense) bool {
	// PSD test with a tiny relative ridge (Cholesky needs PD).
	n := a.Rows()
	ridge := a.MaxAbs()*1e-10 + 1e-300
	s := a.Clone()
	for i := 0; i < n; i++ {
		s.Add(i, i, ridge)
	}
	if matrix.IsPositiveDefinite(s) {
		return true
	}
	return matrix.MinEigenEstimate(a, 1e-3) >= -math.Max(a.MaxAbs()*1e-8, 1e-300)
}
