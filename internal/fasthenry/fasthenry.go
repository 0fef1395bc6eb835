// Package fasthenry is a FastHenry-style frequency-dependent inductance
// and resistance extractor (Kamon, Tsuk & White, IEEE MTT 1994).
//
// Conductor segments and planes are lowered by internal/mesh into a
// uniform filament set (segments split across their cross-section,
// planes into overlapping X/Y filament grids) with branch impedance
// Zb = R + jω Lp (partial inductances between every filament pair).
// Skin and proximity effects emerge from the current redistribution
// among filaments, exactly as in FastHenry.
//
// Two solve paths share that model. The dense oracle assembles Zb,
// LU-factors it and solves the port by nodal analysis,
// Y = A Zb^{-1} A^T. The iterative paths (flat ACA or nested H²
// compressed Lp, see operator.go) drive the port instead: one
// preconditioned GMRES per frequency on the augmented system
// [Zb −A^T; A 0][i; v] = [0; e_plus], so their cost follows the
// filament count and the Krylov iterations, not the node count.
// ImpedanceEachShort extracts the port under several alternative
// shorts from one factorization or one compressed operator (see
// shorts.go).
//
// Substitution note (see DESIGN.md §5): FastHenry accelerates the
// solve with a multipole expansion; here hierarchical (ACA/H²)
// compression plays that role at scale, and below the auto threshold
// a direct dense complex LU is exact and fast enough. The choice
// changes run time, never extracted values.
package fasthenry

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/matrix"
	"inductance101/internal/mesh"
	"inductance101/internal/sweep"
)

// Port defines the two terminals the impedance is extracted between.
type Port struct {
	Plus, Minus string
}

// Options controls filament discretization.
type Options struct {
	// NW, NT force the per-segment filament counts across width and
	// thickness. Zero means automatic: enough filaments that each is
	// no wider than the skin depth at the extraction frequency, capped
	// by MaxPerSide.
	NW, NT int
	// MaxPerSide caps automatic discretization (default 5).
	MaxPerSide int
	// PlaneNW is the mesh grid density of conductor planes: the number
	// of grid cells along each plane axis (0 = mesh.DefaultPlaneNW;
	// see mesh.Options.PlaneNW for the valid range, which NewSolver
	// rejects fail-fast).
	PlaneNW int
	// Mode selects the solve path (dense oracle, matrix-free GMRES, or
	// auto by filament count). The zero value is ModeAuto.
	Mode SolveMode
	// ACATol is the relative tolerance of the compressed operator's
	// low-rank far field on the iterative paths — the ACA factor
	// tolerance in ModeIterative, the interpolative-basis tolerance in
	// ModeNested (default 1e-8 for both).
	ACATol float64
	// Workers caps the sweep fan-out and dense-kernel goroutines.
	// 0 = process default (matrix.Workers), 1 = fully serial.
	Workers int
	// SweepMode selects exact per-point solves, the adaptive
	// anchor-and-fit engine, or auto (adaptive at sweep.AutoThreshold
	// requested points). The zero value is sweep.ModeAuto.
	SweepMode sweep.Mode
	// SweepTol is the adaptive engine's relative interpolation
	// tolerance (0 = sweep.DefaultTol).
	SweepTol float64
}

// meshOptions maps the solver options onto the lowering stage's.
func (o Options) meshOptions() mesh.Options {
	return mesh.Options{
		NW: o.NW, NT: o.NT, MaxPerSide: o.MaxPerSide,
		PlaneNW: o.PlaneNW,
	}
}

// Solver holds the discretized problem for repeated solves across a
// frequency sweep. The partial-inductance matrix is materialized
// lazily: the dense oracle path assembles the full nf x nf matrix on
// first use, the iterative path a hierarchically compressed operator —
// whichever the solve mode needs, never both by default.
type Solver struct {
	fils   []mesh.Filament
	entry  func(i, j int) float64 // filament partial-inductance kernel
	mesh   *mesh.Mesh             // node names, for ImpedanceEachShort
	nNodes int
	plus   int // node index of port plus (minus is the reference)
	minus  int
	// inc holds each filament's reduced nodal rows, nodeRow(NodeA) and
	// nodeRow(NodeB): the columns of the sparse reduced incidence A.
	inc [][2]int
	// blocks partitions the filaments by direction for the dense path
	// (see admittance).
	blocks []dirBlock
	// planes reports whether the mesh lowered any conductor plane.
	planes bool

	lpOnce sync.Once
	lp     *matrix.Dense // dense partial inductance over filaments (lazy)

	mode    SolveMode
	acaTol  float64
	workers int

	sweepMode sweep.Mode
	sweepTol  float64

	opOnce sync.Once
	op     extract.LOperator // compressed partial inductance (lazy)

	schurOnce sync.Once
	schurP    *schurPlan // Schur-complement pattern and symbolic LU (lazy)
	schurErr  error
}

// NewSolver lowers the given segments of the layout — plus every
// conductor plane and via it contains — through internal/mesh at a
// reference frequency fRef (which sizes the filament grids), merges the
// node pairs in shorts, and prepares the partial-inductance problem.
func NewSolver(l *geom.Layout, segs []int, port Port, shorts [][2]string, fRef float64, opt Options) (*Solver, error) {
	m, err := mesh.Build(l, segs, shorts, fRef, opt.meshOptions())
	if err != nil {
		return nil, fmt.Errorf("fasthenry: %w", err)
	}
	plus, minus := m.Node(port.Plus), m.Node(port.Minus)
	if plus == minus {
		return nil, fmt.Errorf("fasthenry: port terminals are shorted together")
	}

	s := &Solver{
		fils:   m.Filaments,
		entry:  extract.FilamentEntry(m.Filaments),
		mesh:   m,
		nNodes: m.NumNodes(), plus: plus, minus: minus,
		planes: m.PlaneFilaments > 0,
		mode:   opt.Mode, acaTol: opt.ACATol, workers: opt.Workers,
		sweepMode: opt.SweepMode, sweepTol: opt.SweepTol,
	}
	s.inc = make([][2]int, len(s.fils))
	for fi, f := range s.fils {
		s.inc[fi] = [2]int{s.nodeRow(f.NodeA), s.nodeRow(f.NodeB)}
	}
	s.blocks = dirBlocks(s.fils, s.inc, s.nNodes-1)
	return s, nil
}

// dirBlock is one filament direction's share of the dense branch
// problem: its filaments in ascending order and the sorted reduced
// nodal rows their ends touch.
type dirBlock struct {
	fils []int
	rows []int
}

// dirBlocks partitions the filaments by direction, in order of first
// appearance. Partial inductance couples only parallel filaments, so
// Zb is block diagonal over these blocks up to a symmetric permutation.
func dirBlocks(fils []mesh.Filament, inc [][2]int, nn int) []dirBlock {
	var blocks []dirBlock
	var dirs []geom.Direction
	for fi, f := range fils {
		b := slices.Index(dirs, f.Dir)
		if b < 0 {
			b = len(blocks)
			dirs = append(dirs, f.Dir)
			blocks = append(blocks, dirBlock{})
		}
		blocks[b].fils = append(blocks[b].fils, fi)
	}
	touched := make([]bool, nn)
	for b := range blocks {
		clear(touched)
		for _, fi := range blocks[b].fils {
			for _, r := range inc[fi] {
				if r >= 0 {
					touched[r] = true
				}
			}
		}
		for r, t := range touched {
			if t {
				blocks[b].rows = append(blocks[b].rows, r)
			}
		}
	}
	return blocks
}

// denseLP materializes (once) the dense partial-inductance matrix over
// filaments — the exact oracle the dense solve path factorizes and the
// compressed operator is verified against.
func (s *Solver) denseLP() *matrix.Dense {
	s.lpOnce.Do(func() {
		nf := len(s.fils)
		lp := matrix.NewDense(nf, nf)
		for i := 0; i < nf; i++ {
			lp.Set(i, i, s.entry(i, i))
			for j := i + 1; j < nf; j++ {
				if s.fils[i].Dir != s.fils[j].Dir {
					continue
				}
				m := s.entry(i, j)
				lp.Set(i, j, m)
				lp.Set(j, i, m)
			}
		}
		s.lp = lp
	})
	return s.lp
}

// NumFilaments reports the discretization size.
func (s *Solver) NumFilaments() int { return len(s.fils) }

// nodeRow maps a node id to its reduced nodal index with the port
// minus node removed as the reference (-1 for the reference itself).
func (s *Solver) nodeRow(n int) int {
	if n == s.minus {
		return -1
	}
	if n > s.minus {
		return n - 1
	}
	return n
}

// Impedance returns the complex port impedance at frequency f (Hz),
// using the configured solve mode (Options.Mode): the dense complex
// LU oracle, or one port-driven matrix-free GMRES through the
// hierarchically compressed partial-inductance operator.
func (s *Solver) Impedance(f float64) (complex128, error) {
	if s.iterativeMode() {
		z, _, err := s.impedanceIterative(f, nil)
		return z, err
	}
	return s.impedanceDense(f)
}

// impedanceDense is the exact direct path: dense complex LU of the
// branch impedance matrix at this frequency.
func (s *Solver) impedanceDense(f float64) (complex128, error) {
	y, err := s.admittance(f)
	if err != nil {
		return 0, err
	}
	return s.portSolve(y)
}

// admittance LU-factors the branch impedance matrix Zb at frequency f
// and assembles the nodal admittance with the port minus node as
// reference, Y = A Zb^{-1} A^T with A the reduced incidence matrix.
//
// Zb couples only filaments of one direction, so each direction block
// is factored on its own and solves only the node columns its
// filaments touch; its share of W = Zb^{-1} A^T is zero in the others.
// This is bit-identical to factoring the whole Zb: the cross-block
// entries are exact zeros, so partial pivoting only ever swaps rows
// within a block and no elimination step updates another block's
// entries, and every nonzero of the factors and of W comes from the
// same operations in the same order. Y = A W is then accumulated in
// the original filament order, which keeps each entry's summation
// order.
func (s *Solver) admittance(f float64) (*matrix.CDense, error) {
	omega := 2 * math.Pi * f
	lp := s.denseLP()
	lus := make([]*matrix.CLU, len(s.blocks))
	nmax := 0
	for b, blk := range s.blocks {
		n := len(blk.fils)
		nmax = max(nmax, n)
		zb := matrix.NewCDense(n, n)
		for i, fi := range blk.fils {
			for j, fj := range blk.fils {
				re := 0.0
				if i == j {
					re = s.fils[fi].R
				}
				zb.Set(i, j, complex(re, omega*lp.At(fi, fj)))
			}
		}
		lu, err := matrix.FactorComplexLU(zb)
		if err != nil {
			return nil, fmt.Errorf("fasthenry: branch impedance singular: %w", err)
		}
		lus[b] = lu
	}

	// Column k of W is Zb^{-1} (A^T e_k); each filament touches two
	// nodes, so a block's A^T e_k is zero unless k is in its rows.
	nn := s.nNodes - 1
	y := matrix.NewCDense(nn, nn)
	w := make([]complex128, len(s.fils))
	col := make([]complex128, nmax)
	wb := make([]complex128, nmax)
	next := make([]int, len(s.blocks)) // each block's cursor into its rows
	for k := 0; k < nn; k++ {
		for b, blk := range s.blocks {
			if next[b] == len(blk.rows) || blk.rows[next[b]] != k {
				for _, fi := range blk.fils {
					w[fi] = 0
				}
				continue
			}
			next[b]++
			n := len(blk.fils)
			s.incidenceColumn(col[:n], blk.fils, k)
			if err := lus[b].SolveTo(wb[:n], col[:n]); err != nil {
				return nil, err
			}
			for i, fi := range blk.fils {
				w[fi] = wb[i]
			}
		}
		s.scatterAdmittance(y, k, w)
	}
	return y, nil
}

// incidenceColumn fills col with the A^T e_k column restricted to the
// filaments fils: +1/-1 at those whose end nodes map to reduced index k.
func (s *Solver) incidenceColumn(col []complex128, fils []int, k int) {
	for i, fi := range fils {
		r := s.inc[fi]
		col[i] = 0
		if r[0] == k {
			col[i]++
		}
		if r[1] == k {
			col[i]--
		}
	}
}

// scatterAdmittance accumulates column k of Y = A W from the branch
// current solution w.
func (s *Solver) scatterAdmittance(y *matrix.CDense, k int, w []complex128) {
	for fi, r := range s.inc {
		if r[0] >= 0 {
			y.Add(r[0], k, w[fi])
		}
		if r[1] >= 0 {
			y.Add(r[1], k, -w[fi])
		}
	}
}

// portSolve injects 1 A into the port plus node and solves the reduced
// nodal system for the port voltage (= impedance).
func (s *Solver) portSolve(y *matrix.CDense) (complex128, error) {
	nn := y.Rows()
	rhs := make([]complex128, nn)
	pr := s.nodeRow(s.plus)
	if pr < 0 {
		return 0, fmt.Errorf("fasthenry: port plus equals reference")
	}
	rhs[pr] = 1
	v, err := matrix.SolveComplex(y, rhs)
	if err != nil {
		return 0, fmt.Errorf("fasthenry: port network disconnected: %w", err)
	}
	return v[pr], nil
}

// RL decomposes an impedance into series resistance and inductance at
// frequency f: R = Re Z, L = Im Z / (2 pi f).
func RL(z complex128, f float64) (r, l float64) {
	return real(z), imag(z) / (2 * math.Pi * f)
}

// Point is one frequency sample of an extraction sweep.
type Point struct {
	Freq float64
	Z    complex128
	R    float64
	L    float64
	// Iters is the GMRES iteration count of the point's port solve
	// (zero on the dense path and on interpolated points).
	Iters int
	// Interp marks a point filled by the adaptive sweep's rational
	// interpolant instead of an exact solve.
	Interp bool
}

// LogSpace returns n logarithmically spaced frequencies in [f0, f1].
// Degenerate requests are well defined: n <= 1 or a collapsed band
// (f0 == f1) yield the single-point slice [f0] rather than repeated
// points or NaN spacing from the zero-width ratio.
func LogSpace(f0, f1 float64, n int) []float64 {
	if n <= 1 || f0 == f1 {
		return []float64{f0}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = f0 * math.Pow(f1/f0, float64(i)/float64(n-1))
	}
	return out
}

// DCResistance returns the zero-frequency limit of the port resistance,
// from a purely resistive solve (useful as a sanity anchor: the
// extraction's R(f) must approach this as f -> 0).
func (s *Solver) DCResistance() (float64, error) {
	z, err := s.Impedance(1) // 1 Hz: inductive part utterly negligible
	if err != nil {
		return 0, err
	}
	return real(z), nil
}
