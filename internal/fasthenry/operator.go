package fasthenry

import (
	"fmt"
	"math"

	"inductance101/internal/extract"
	"inductance101/internal/matrix"
	"inductance101/internal/mesh"
)

// Matrix-free iterative extraction path.
//
// The dense path assembles the nf x nf branch impedance matrix
// Zb = R + jω Lp and LU-factors it at every frequency point: O(nf²)
// memory and O(nf³) per point, which caps filament refinement well
// below skin-depth-accurate discretizations. The iterative path never
// forms Zb. Lp becomes a hierarchically compressed operator
// (extract.CompressedL): filaments are clustered through
// mesh.ClusterFilaments, near blocks stay exact through the kernel
// cache, and well-separated blocks are ACA low-rank factors, so one
// matvec is near-linear in nf. Each nodal solve then runs restarted
// GMRES with a block-Jacobi preconditioner built from the per-cluster
// R + jω L_self diagonal blocks, and frequency sweeps warm-start every
// point with the previous point's branch currents.

// SolveMode selects how Solver.Impedance solves the branch system.
type SolveMode int

const (
	// ModeAuto picks the dense oracle below AutoIterativeThreshold
	// filaments and the iterative path at or above it.
	ModeAuto SolveMode = iota
	// ModeDense forces the dense complex-LU oracle.
	ModeDense
	// ModeIterative forces matrix-free GMRES through the flat-ACA
	// compressed operator.
	ModeIterative
	// ModeNested forces matrix-free GMRES through the nested-basis
	// (H²) compressed operator — same solves, an operator whose build
	// and matvec stay near-linear where the flat factors flatten out.
	ModeNested
)

// AutoIterativeThreshold is the filament count at which ModeAuto
// switches from the dense oracle to the iterative path. Below it the
// dense LU is fast enough that operator construction would dominate.
const AutoIterativeThreshold = 512

// AutoNestedThreshold is the filament count at which ModeAuto switches
// from the flat-ACA operator to the nested-basis one. Between the two
// thresholds the flat build is cheaper (the nested scheme's per-node
// far-field sampling is a fixed cost); beyond it the pairwise factors
// grow superlinearly and shared bases win.
const AutoNestedThreshold = 8192

// String returns the CLI spelling of the mode.
func (m SolveMode) String() string {
	switch m {
	case ModeDense:
		return "dense"
	case ModeIterative:
		return "iterative"
	case ModeNested:
		return "nested"
	default:
		return "auto"
	}
}

// ParseSolveMode parses the -solver CLI flag value.
func ParseSolveMode(s string) (SolveMode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "dense":
		return ModeDense, nil
	case "iterative":
		return ModeIterative, nil
	case "nested":
		return ModeNested, nil
	}
	return ModeAuto, fmt.Errorf("fasthenry: unknown solve mode %q (want dense, iterative, nested or auto)", s)
}

// Precond selects the preconditioner of the iterative solve paths.
type Precond int

const (
	// PrecondBlockJacobi is the per-cluster block-Jacobi preconditioner
	// (the default): the diagonal leaf blocks of R + jωL, complex-LU
	// factored once per frequency point.
	PrecondBlockJacobi Precond = iota
	// PrecondSAI is a sparse approximate inverse over the near-field
	// pattern: one Neumann correction of block-Jacobi through the exact
	// off-diagonal near blocks, M⁻¹ = D⁻¹ − D⁻¹ (jω L_near) D⁻¹. It
	// costs one extra near-field matvec and block solve per
	// application and cuts GMRES iterations on tightly coupled layouts
	// where the nearest-neighbour coupling dominates.
	PrecondSAI
)

// String returns the CLI spelling of the preconditioner.
func (p Precond) String() string {
	switch p {
	case PrecondSAI:
		return "sai"
	default:
		return "bjacobi"
	}
}

// ParsePrecond parses the -precond CLI flag value.
func ParsePrecond(s string) (Precond, error) {
	switch s {
	case "bjacobi":
		return PrecondBlockJacobi, nil
	case "sai":
		return PrecondSAI, nil
	}
	return PrecondBlockJacobi, fmt.Errorf("fasthenry: unknown preconditioner %q (want bjacobi or sai)", s)
}

// SolveModeInUse reports the mode Impedance will actually run
// (ModeAuto resolved against the filament count).
func (s *Solver) SolveModeInUse() SolveMode { return s.effectiveMode() }

func (s *Solver) effectiveMode() SolveMode {
	switch s.mode {
	case ModeDense:
		return ModeDense
	case ModeIterative:
		return ModeIterative
	case ModeNested:
		return ModeNested
	}
	switch {
	case len(s.fils) >= AutoNestedThreshold:
		return ModeNested
	case len(s.fils) >= AutoIterativeThreshold:
		return ModeIterative
	}
	return ModeDense
}

// iterativeMode reports whether the effective mode runs matrix-free
// GMRES (through either compressed operator).
func (s *Solver) iterativeMode() bool {
	m := s.effectiveMode()
	return m == ModeIterative || m == ModeNested
}

// gmresTol is the relative residual target of each branch-system
// solve. Together with the ACA tolerance it bounds the iterative vs
// dense port-impedance mismatch (see DESIGN.md §10: documented at
// 1e-6 relative).
const gmresTol = 1e-10

// gmresRestart is the Krylov dimension per GMRES cycle.
const gmresRestart = 60

// compressedOp builds (once) the hierarchically compressed
// partial-inductance operator over the solver's filaments — flat ACA
// factors, or nested bases when the effective mode is ModeNested. Safe
// for concurrent callers; sweep workers share the cached operator. The
// construction itself fans out over Options.Workers goroutines through
// the shared kernel cache.
func (s *Solver) compressedOp() extract.LOperator {
	s.opOnce.Do(func() {
		elems := extract.FilamentElements(s.fils)
		// Cluster the filaments directly (plane grids have no segment to
		// cluster by; segment filaments land in the same leaves their
		// spatial position dictates). Leaf size targets ~48 filaments so
		// the block-Jacobi diagonal blocks stay cheap to factor while
		// capturing whole-conductor self coupling.
		roots := mesh.ClusterFilaments(s.fils, 48, s.workers)
		trees := extract.ElemTreesFromClusters(roots, func(i int) []int { return []int{i} })
		tol := s.acaTol
		if tol <= 0 {
			tol = 1e-8
		}
		if s.effectiveMode() == ModeNested {
			s.op = extract.CompressLH2(elems, trees, s.lpEntry,
				extract.H2Options{Tol: tol, Workers: s.workers})
		} else {
			s.op = extract.CompressL(elems, trees, s.lpEntry,
				extract.ACAOptions{Tol: tol, Workers: s.workers})
		}
	})
	return s.op
}

// OperatorStats returns the compression summary of the iterative
// path's operator (building it if needed).
func (s *Solver) OperatorStats() extract.CompressStats {
	return s.compressedOp().Stats()
}

// zbOp is the matrix-free branch impedance operator
// Zb x = R x + jω (Lp x) at one frequency. Each Impedance call makes
// its own (the scratch buffer is per-solve), so parallel sweep points
// share only the immutable compressed operator.
type zbOp struct {
	s       *Solver
	omega   float64
	op      extract.LOperator
	scratch []complex128
}

func (z *zbOp) Dim() int { return len(z.s.fils) }

func (z *zbOp) ApplyTo(dst, x []complex128) {
	z.op.ApplyCTo(z.scratch, x)
	jw := complex(0, z.omega)
	for i := range dst {
		dst[i] = complex(z.s.fils[i].R, 0)*x[i] + jw*z.scratch[i]
	}
}

// blockPrecond is the block-Jacobi preconditioner: the per-cluster
// diagonal blocks of Zb (per-conductor R + L_self coupling), complex-LU
// factored once per frequency point.
type blockPrecond struct {
	blocks []precondBlock
}

type precondBlock struct {
	idx []int
	lu  *matrix.CLU
	// dinv is the degraded per-entry fallback when the cluster block is
	// numerically singular and refuses to factor: the inverse of the
	// block's diagonal (identity where even that vanishes). A weaker
	// preconditioner costs GMRES iterations; a NaN-ed sweep costs the
	// run.
	dinv []complex128
}

// buildBlockPrecond factors diag(R) + jω L_cc for every diagonal leaf
// cluster c of the compressed operator. Blocks that fail to factor
// fall back to their diagonal inverse instead of failing the solve.
func (s *Solver) buildBlockPrecond(op extract.LOperator, omega float64) *blockPrecond {
	diags := op.DiagBlocks()
	p := &blockPrecond{blocks: make([]precondBlock, 0, len(diags))}
	for _, d := range diags {
		n := len(d.Idx)
		zb := matrix.NewCDense(n, n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				re := 0.0
				if a == b {
					re = s.fils[d.Idx[a]].R
				}
				zb.Set(a, b, complex(re, omega*d.V[a*n+b]))
			}
		}
		lu, err := matrix.FactorComplexLU(zb)
		if err != nil {
			dinv := make([]complex128, n)
			for a := 0; a < n; a++ {
				if v := zb.At(a, a); v != 0 {
					dinv[a] = 1 / v
				} else {
					dinv[a] = 1
				}
			}
			p.blocks = append(p.blocks, precondBlock{idx: d.Idx, dinv: dinv})
			continue
		}
		p.blocks = append(p.blocks, precondBlock{idx: d.Idx, lu: lu})
	}
	return p
}

// apply computes dst = M^{-1} src blockwise.
func (p *blockPrecond) apply(dst, src []complex128) {
	for _, b := range p.blocks {
		if b.lu == nil {
			for a, i := range b.idx {
				dst[i] = b.dinv[a] * src[i]
			}
			continue
		}
		rhs := make([]complex128, len(b.idx))
		for a, i := range b.idx {
			rhs[a] = src[i]
		}
		x, err := b.lu.Solve(rhs)
		if err != nil {
			// The factorization succeeded, so Solve cannot fail; fall
			// back to the identity on this block out of caution.
			copy(x, rhs)
		}
		for a, i := range b.idx {
			dst[i] = x[a]
		}
	}
}

// saiPrecond is the sparse-approximate-inverse preconditioner: a
// one-term Neumann correction of block-Jacobi over the operator's
// exact near-field pattern,
//
//	M⁻¹ src = D⁻¹ src − D⁻¹ (jω L_near) D⁻¹ src,
//
// with D the factored diagonal blocks and L_near the off-diagonal
// dense near blocks. It approximates the inverse over the full sparse
// near pattern (the strongest couplings GMRES otherwise has to iterate
// away) at one extra near-field matvec and block solve per
// application.
type saiPrecond struct {
	bj     *blockPrecond
	op     extract.LOperator
	omega  float64
	t1, t2 []complex128
}

func (p *saiPrecond) apply(dst, src []complex128) {
	p.bj.apply(p.t1, src)
	p.op.ApplyNearCTo(p.t2, p.t1)
	jw := complex(0, p.omega)
	for i := range p.t2 {
		p.t2[i] *= jw
	}
	p.bj.apply(dst, p.t2)
	for i := range dst {
		dst[i] = p.t1[i] - dst[i]
	}
}

// precondApply builds the configured preconditioner for one frequency
// point and returns its application closure.
func (s *Solver) precondApply(op extract.LOperator, omega float64) func(dst, src []complex128) {
	bj := s.buildBlockPrecond(op, omega)
	if s.precond != PrecondSAI {
		return bj.apply
	}
	nf := len(s.fils)
	sp := &saiPrecond{
		bj: bj, op: op, omega: omega,
		t1: make([]complex128, nf), t2: make([]complex128, nf),
	}
	return sp.apply
}

// impedanceIterative solves the port impedance at frequency f with
// restarted, right-preconditioned GMRES through the compressed
// operator. warm, when non-nil, holds one previous branch-current
// solution per reduced node (a frequency sweep's warm starts); entries
// are updated in place. rs, when non-nil, is a Krylov recycling space
// carried across an adaptive sweep's anchor solves: it is invalidated
// once for this frequency's operator and then shared by all the nodal
// solves, which re-project it exactly once. It returns the impedance
// and the total GMRES iterations across the nodal solves.
func (s *Solver) impedanceIterative(f float64, warm [][]complex128, rs *matrix.RecycleSpace) (complex128, int, error) {
	op := s.compressedOp()
	omega := 2 * math.Pi * f
	pre := s.precondApply(op, omega)
	nf := len(s.fils)
	zop := &zbOp{s: s, omega: omega, op: op, scratch: make([]complex128, nf)}
	nn := s.nNodes - 1
	y := matrix.NewCDense(nn, nn)
	col := make([]complex128, nf)
	iters := 0
	rs.Invalidate()
	for k := 0; k < nn; k++ {
		s.incidenceColumn(col, k)
		opt := matrix.GMRESOptions{
			Restart: gmresRestart,
			Tol:     gmresTol,
			Precond: pre,
		}
		if warm != nil && warm[k] != nil {
			opt.X0 = warm[k]
		}
		w, res, err := matrix.GMRES(zop, col, opt, rs)
		if err != nil {
			return 0, iters, fmt.Errorf("fasthenry: GMRES at %g Hz: %w", f, err)
		}
		iters += res.Iters
		if !res.Converged {
			return 0, iters, fmt.Errorf(
				"fasthenry: GMRES stalled at %g Hz (residual %.2e after %d iterations); use the dense solve mode",
				f, res.Residual, res.Iters)
		}
		if warm != nil {
			warm[k] = w
		}
		s.scatterAdmittance(y, k, w)
	}
	z, err := s.portSolve(y)
	return z, iters, err
}
