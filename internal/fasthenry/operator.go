package fasthenry

import (
	"fmt"
	"math"
	"sort"

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
// mesh.ClusterFilaments, near blocks stay exact, and well-separated
// blocks are ACA low-rank factors, so one matvec is near-linear in nf.
//
// The port is driven, not the nodes: instead of the full nodal
// admittance (one solve per reduced node, hopeless on a plane with
// ~PlaneNW² nodes), each frequency runs one restarted GMRES on the
// augmented branch/node system
//
//	[Zb  −Aᵀ] [i]   [0     ]
//	[A    0 ] [v] = [e_plus]
//
// (1 A injected at the port plus node, minus as the reference), whose
// v[plus] is the port impedance. The KCL rows are scaled by a
// resistance (kclScale) so both residual blocks read in volts. The
// system is right-preconditioned by the constraint preconditioner
// [D −Aᵀ; A 0] (augPrecond), applied through its block LU: D the
// per-cluster R + jω L_self diagonal blocks (block-Jacobi), Ŝ = A D⁻¹ Aᵀ
// the Schur complement those blocks imply, factored
// sparse over a pattern and symbolic analysis cached per solver.
// Frequency sweeps warm-start every point with the previous point's
// [i; v].

// SolveMode selects how Solver.Impedance solves the branch system.
type SolveMode int

const (
	// ModeAuto picks the dense oracle below AutoIterativeThreshold
	// filaments, flat-ACA GMRES at or above it, and the nested-basis
	// operator from AutoNestedThreshold on unless the layout has planes.
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
// grow superlinearly and shared bases win. Layouts with planes stay on
// flat ACA: on a PlaneNW=64 microstrip (8,200 filaments) the nested
// operator's port solve stalls (residual 2e-6 after 1,200 iterations at
// 20 GHz), while flat ACA converges in 46.
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
	case len(s.fils) >= AutoNestedThreshold && !s.planes:
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

// gmresRestart is the Krylov dimension per GMRES cycle. Port solves at
// the top of the band take 20–60 iterations (57 on the 8,192-filament
// bus at 20 GHz, 46 on a PlaneNW=64 plane), so one cycle holds them; a
// restart inside a solve throws away the Krylov space the slow modes
// live in. Basis vectors are allocated as a cycle grows, so the
// headroom costs shorter solves nothing.
const gmresRestart = 80

// compressedOp builds (once) the hierarchically compressed
// partial-inductance operator over the solver's filaments — flat ACA
// factors, or nested bases when the effective mode is ModeNested. Safe
// for concurrent callers; sweep workers share the cached operator. The
// construction itself fans out over Options.Workers goroutines, each
// evaluating the filament kernels directly.
func (s *Solver) compressedOp() extract.LOperator {
	s.opOnce.Do(func() {
		elems := extract.FilamentElements(s.fils)
		// Cluster the filaments directly (plane grids have no segment to
		// cluster by; segment filaments land in the same leaves their
		// spatial position dictates). A leaf holds at most 48 filaments
		// (median bisection leaves the buses at 32), so the block-Jacobi
		// diagonal blocks stay cheap to factor while capturing
		// whole-conductor self coupling.
		roots := mesh.ClusterFilaments(s.fils, 48, s.workers)
		trees := extract.ElemTreesFromClusters(roots, func(i int) []int { return []int{i} })
		tol := s.acaTol
		if tol <= 0 {
			tol = 1e-8
		}
		if s.effectiveMode() == ModeNested {
			s.op = extract.CompressLH2(elems, trees, s.entry,
				extract.H2Options{Tol: tol, Workers: s.workers})
		} else {
			s.op = extract.CompressL(elems, trees, s.entry,
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
// factored once per frequency point. rhs and x are its own solve
// scratch (sized to the largest block), so applying it allocates
// nothing; it is therefore not safe for concurrent use.
type blockPrecond struct {
	blocks []precondBlock
	rhs, x []complex128
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
	// w holds W_c = D_c⁻¹A_cᵀ, column k (the block's k-th reduced node)
	// at w[k*n : (k+1)*n], when schurPlan.factor kept it: for a factored
	// block touching fewer reduced nodes than it has filaments. nil
	// otherwise.
	w []complex128
}

// buildBlockPrecond factors diag(R) + jω L_cc for every diagonal leaf
// cluster c of the compressed operator. Blocks that fail to factor
// fall back to their diagonal inverse instead of failing the solve.
func (s *Solver) buildBlockPrecond(op extract.LOperator, omega float64) *blockPrecond {
	diags := op.DiagBlocks()
	p := &blockPrecond{blocks: make([]precondBlock, 0, len(diags))}
	maxN := 0
	for _, d := range diags {
		n := len(d.Idx)
		maxN = max(maxN, n)
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
	p.rhs, p.x = make([]complex128, maxN), make([]complex128, maxN)
	return p
}

// apply computes dst = M^{-1} src blockwise.
func (p *blockPrecond) apply(dst, src []complex128) {
	for bi := range p.blocks {
		b := &p.blocks[bi]
		rhs := p.rhs[:len(b.idx)]
		for a, i := range b.idx {
			rhs[a] = src[i]
		}
		p.solve(b, dst, rhs)
	}
}

// solve scatters D_b⁻¹ rhs into dst at the block's filaments; rhs is
// in block order.
func (p *blockPrecond) solve(b *precondBlock, dst, rhs []complex128) {
	if b.lu == nil {
		for a, i := range b.idx {
			dst[i] = b.dinv[a] * rhs[a]
		}
		return
	}
	x := p.x[:len(b.idx)]
	if err := b.lu.SolveTo(x, rhs); err != nil {
		// The factorization succeeded, so the solve cannot fail; fall
		// back to the identity on this block out of caution.
		copy(x, rhs)
	}
	for a, i := range b.idx {
		dst[i] = x[a]
	}
}

// schurPlan is the frequency-independent half of the Schur complement
// Ŝ = A D⁻¹ Aᵀ: D is block diagonal over the operator's leaf clusters,
// so Ŝ is a sum of dense couplings among the reduced nodes each cluster
// touches. The sparse pattern of that sum, every block's value slots
// in it, and a symbolic sparse LU depend only on the cluster→node
// incidence; one plan per solver serves every frequency, so a point
// only assembles values and refactors (DESIGN.md §10).
type schurPlan struct {
	n      int               // reduced node count
	tmpl   *matrix.CCSC      // pattern of Ŝ (values unused)
	blocks []schurBlock      // parallel to the operator's DiagBlocks
	sym    *matrix.SparseCLU // analyzed on the DC conductance matrix
}

type schurBlock struct {
	nodes []int    // reduced rows the cluster's filaments touch, ascending
	ends  [][2]int // per filament: local node index of NodeA, NodeB (-1 = reference)
	pos   []int    // value slot of (nodes[a], nodes[b]) at a*len(nodes)+b
}

// schur returns the solver's cached Schur plan, building it once
// after the compressed operator. Safe for concurrent callers.
func (s *Solver) schur() (*schurPlan, error) {
	s.schurOnce.Do(func() {
		s.schurP, s.schurErr = s.buildSchurPlan(s.compressedOp())
	})
	return s.schurP, s.schurErr
}

func (s *Solver) buildSchurPlan(op extract.LOperator) (*schurPlan, error) {
	nn := s.nNodes - 1
	diags := op.DiagBlocks()
	p := &schurPlan{n: nn, blocks: make([]schurBlock, len(diags))}
	local := make([]int, nn)
	for i := range local {
		local[i] = -1
	}
	colRows := make([][]int, nn)
	for bi, d := range diags {
		b := &p.blocks[bi]
		for _, fi := range d.Idx {
			for _, r := range s.inc[fi] {
				if r >= 0 && local[r] < 0 {
					local[r] = 0 // seen; numbered after the sort
					b.nodes = append(b.nodes, r)
				}
			}
		}
		sort.Ints(b.nodes)
		for a, r := range b.nodes {
			local[r] = a
		}
		b.ends = make([][2]int, len(d.Idx))
		for a, fi := range d.Idx {
			for e, r := range s.inc[fi] {
				b.ends[a][e] = -1
				if r >= 0 {
					b.ends[a][e] = local[r]
				}
			}
		}
		for _, r := range b.nodes {
			local[r] = -1
			colRows[r] = append(colRows[r], b.nodes...)
		}
	}
	colPtr := make([]int, nn+1)
	var rowIdx []int
	for j, rows := range colRows {
		sort.Ints(rows)
		for k, r := range rows {
			if k == 0 || r != rows[k-1] {
				rowIdx = append(rowIdx, r)
			}
		}
		colPtr[j+1] = len(rowIdx)
	}
	p.tmpl = matrix.CSCFromParts(nn, nn, colPtr, rowIdx, make([]complex128, len(rowIdx)))
	for bi := range p.blocks {
		b := &p.blocks[bi]
		m := len(b.nodes)
		b.pos = make([]int, m*m)
		for a, r := range b.nodes {
			for c, col := range b.nodes {
				rows := rowIdx[colPtr[col]:colPtr[col+1]]
				b.pos[a*m+c] = colPtr[col] + sort.SearchInts(rows, r)
			}
		}
	}
	// Analyze on the DC limit of Ŝ, the nodal conductance matrix
	// A R⁻¹ Aᵀ: deterministic, independent of which frequency a sweep
	// happens to solve first, and nonsingular exactly when every node
	// reaches the reference. Ŝ(ω) keeps a positive-definite Hermitian
	// part, so its diagonal pivots stay usable across the band.
	val := make([]complex128, len(rowIdx))
	for bi, d := range diags {
		b := &p.blocks[bi]
		for a, e := range b.ends {
			b.addBranch(val, e, complex(1/s.fils[d.Idx[a]].R, 0))
		}
	}
	sym, err := matrix.FactorSparseCLU(p.tmpl.WithValues(val))
	if err != nil {
		return nil, fmt.Errorf("fasthenry: port network disconnected: %w", err)
	}
	p.sym = sym
	return p, nil
}

// addBranch adds one branch of admittance y between the block's local
// nodes e[0] and e[1] into the values of Ŝ.
func (b *schurBlock) addBranch(val []complex128, e [2]int, y complex128) {
	m := len(b.nodes)
	ra, rb := e[0], e[1]
	if ra >= 0 {
		val[b.pos[ra*m+ra]] += y
	}
	if rb >= 0 {
		val[b.pos[rb*m+rb]] += y
	}
	if ra >= 0 && rb >= 0 {
		val[b.pos[ra*m+rb]] -= y
		val[b.pos[rb*m+ra]] -= y
	}
}

// factor assembles Ŝ = A D⁻¹ Aᵀ from this frequency's block-Jacobi
// factors and LU-factors it over the cached symbolic analysis, with
// fresh pivoting when the frozen pivots drift. A factored block adds
// A_c W_c, where W_c = D_c⁻¹ A_cᵀ takes one block solve per touched
// node; a block touching fewer nodes than it has filaments keeps W_c in
// bj for augPrecond. A fallback block adds its diagonal inverse as
// independent branch admittances.
func (p *schurPlan) factor(bj *blockPrecond) (*matrix.SparseCLU, error) {
	val := make([]complex128, p.tmpl.NNZ())
	for bi := range p.blocks {
		b, pb := &p.blocks[bi], &bj.blocks[bi]
		if pb.lu == nil {
			for a, e := range b.ends {
				b.addBranch(val, e, pb.dinv[a])
			}
			continue
		}
		m, n := len(b.nodes), len(b.ends)
		if m < n {
			pb.w = make([]complex128, m*n)
		}
		rhs, x := bj.rhs[:n], bj.x[:n]
		for k := 0; k < m; k++ {
			if pb.w != nil {
				x = pb.w[k*n : (k+1)*n]
			}
			for a, e := range b.ends {
				var v complex128
				if e[0] == k {
					v++
				}
				if e[1] == k {
					v--
				}
				rhs[a] = v
			}
			if err := pb.lu.SolveTo(x, rhs); err != nil {
				return nil, err
			}
			for a, e := range b.ends {
				if e[0] >= 0 {
					val[b.pos[e[0]*m+k]] += x[a]
				}
				if e[1] >= 0 {
					val[b.pos[e[1]*m+k]] -= x[a]
				}
			}
		}
	}
	a := p.tmpl.WithValues(val)
	lu := p.sym.NewNumeric()
	if err := lu.Refactor(a); err != nil {
		return matrix.FactorSparseCLU(a)
	}
	return lu, nil
}

// augOp is the augmented branch/node operator over x = [i; v/ρ] (nf
// branch currents, then the reduced node voltages in units of ρ):
//
//	[Zb   −ρAᵀ] [i  ]   [0       ]
//	[ρA    0  ] [v/ρ] = [ρ e_plus]
//
// The resistance ρ (kclScale) turns the KCL rows from amperes into
// volts at the branches' own scale, so GMRES weighs both residual
// blocks alike.
type augOp struct {
	zb  zbOp
	inc [][2]int
	rho complex128
}

func (o *augOp) Dim() int { return len(o.inc) + o.zb.s.nNodes - 1 }

func (o *augOp) ApplyTo(dst, x []complex128) {
	nf := len(o.inc)
	xi, xv := x[:nf], x[nf:]
	di, dv := dst[:nf], dst[nf:]
	o.zb.ApplyTo(di, xi)
	for k := range dv {
		dv[k] = 0
	}
	for f, r := range o.inc {
		if r[0] >= 0 {
			di[f] -= o.rho * xv[r[0]]
			dv[r[0]] += o.rho * xi[f]
		}
		if r[1] >= 0 {
			di[f] += o.rho * xv[r[1]]
			dv[r[1]] -= o.rho * xi[f]
		}
	}
}

// kclScale is the resistance ρ that scales augOp's KCL rows and node
// voltages: the filaments' mean resistance. Unscaled, the 1 A port
// drive asks the branch equations for a far tighter absolute residual
// than the nodal solves' right-hand sides A^T e_k did, tighter than a
// compressed matvec's rounding can deliver, and GMRES spends iterations
// at that floor (104 instead of 57 on the 8,192-filament bus at 20 GHz,
// at the same answer).
func (s *Solver) kclScale() float64 {
	sum := 0.0
	for i := range s.fils {
		sum += s.fils[i].R
	}
	if sum <= 0 {
		return 1
	}
	return sum / float64(len(s.fils))
}

// augPrecond applies the constraint preconditioner of the scaled
// system: the augmented matrix with Zb replaced by its block diagonal D,
// through its block LU factors
//
//	[D  −ρAᵀ]   [I      0] [D  −ρAᵀ]
//	[ρA   0 ] = [ρAD⁻¹  I] [0  ρ²Ŝ ],
//
// so t = D⁻¹ r_i, r_v' = r_v − ρA t, y_v = Ŝ⁻¹ r_v' / ρ² and
// y_i = D⁻¹ (r_i + ρAᵀ y_v). The preconditioned operator then departs
// from the identity only through the off-block coupling Zb − D, for a
// residual in the branch rows (a warm start's) as much as in the node
// rows (the port drive's). The upper factor alone would treat node
// residuals exactly but turn a branch residual into an O(1) node one: a
// warm-started point would take an extra iteration, and the plane at
// 20 GHz 52 iterations instead of 22.
//
// An apply makes one block solve per cluster. y_i is block by block
// t_c + ρ W_c y_v where schurPlan.factor kept W_c = D_c⁻¹ A_cᵀ (a bus
// block: 32 filaments between at most 2 reduced nodes, so 2n
// multiply-adds replace an n² triangular solve), and a second solve
// D_c⁻¹ (r_i + ρAᵀ y_v) elsewhere (a plane block touches at least as
// many nodes as it has filaments, and W_c would cost more than the
// solve). t, rv and sc are its scratch, so an apply allocates nothing.
type augPrecond struct {
	bj     *blockPrecond
	plan   *schurPlan
	schur  *matrix.SparseCLU
	inc    [][2]int
	rho    complex128
	t      []complex128
	rv, sc []complex128
}

func (p *augPrecond) apply(dst, src []complex128) {
	nf := len(p.inc)
	p.bj.apply(p.t, src[:nf])
	copy(p.rv, src[nf:])
	for f, r := range p.inc {
		if r[0] >= 0 {
			p.rv[r[0]] -= p.rho * p.t[f]
		}
		if r[1] >= 0 {
			p.rv[r[1]] += p.rho * p.t[f]
		}
	}
	yv := dst[nf:]
	// Ŝ factored without error, so its pivots are nonzero and the solve
	// cannot fail.
	_ = p.schur.SolveTo(yv, p.rv, p.sc)
	inv := 1 / (p.rho * p.rho)
	for k := range yv {
		yv[k] *= inv
	}
	for bi := range p.bj.blocks {
		b := &p.bj.blocks[bi]
		if b.w != nil {
			n, nodes := len(b.idx), p.plan.blocks[bi].nodes
			for a, i := range b.idx {
				var wy complex128
				for k, r := range nodes {
					wy += b.w[k*n+a] * yv[r]
				}
				dst[i] = p.t[i] + p.rho*wy
			}
			continue
		}
		rhs := p.bj.rhs[:len(b.idx)]
		for a, f := range b.idx {
			v, r := src[f], p.inc[f]
			if r[0] >= 0 {
				v += p.rho * yv[r[0]]
			}
			if r[1] >= 0 {
				v -= p.rho * yv[r[1]]
			}
			rhs[a] = v
		}
		p.bj.solve(b, dst, rhs)
	}
}

// portSystem assembles the augmented operator at angular frequency
// omega and its preconditioner: this point's block-Jacobi factors and
// Ŝ factored on the solver's cached Schur plan.
func (s *Solver) portSystem(omega float64) (*augOp, *augPrecond, error) {
	op := s.compressedOp()
	plan, err := s.schur()
	if err != nil {
		return nil, nil, err
	}
	rho := complex(s.kclScale(), 0)
	aop := &augOp{zb: zbOp{s: s, omega: omega, op: op, scratch: make([]complex128, len(s.fils))}, inc: s.inc, rho: rho}
	pre, err := s.newAugPrecond(plan, s.buildBlockPrecond(op, omega), rho)
	if err != nil {
		return nil, nil, err
	}
	return aop, pre, nil
}

// newAugPrecond factors Ŝ on plan from the block-Jacobi factors bj and
// wraps both in the constraint preconditioner.
func (s *Solver) newAugPrecond(plan *schurPlan, bj *blockPrecond, rho complex128) (*augPrecond, error) {
	sc, err := plan.factor(bj)
	if err != nil {
		return nil, fmt.Errorf("fasthenry: port network disconnected: %w", err)
	}
	nf, nn := len(s.fils), s.nNodes-1
	return &augPrecond{
		bj: bj, plan: plan, schur: sc, inc: s.inc, rho: rho,
		t: make([]complex128, nf), rv: make([]complex128, nn), sc: make([]complex128, nn),
	}, nil
}

// impedanceIterative solves the port impedance at frequency f with one
// right-preconditioned restarted GMRES on the augmented system through
// the compressed operator. warm, when non-nil, carries a sweep
// worker's previous [i; v/ρ] solution: a non-nil *warm seeds the solve
// and is replaced by this point's solution. It returns the impedance
// and the GMRES iteration count.
func (s *Solver) impedanceIterative(f float64, warm *[]complex128) (complex128, int, error) {
	pr := s.nodeRow(s.plus)
	if pr < 0 {
		return 0, 0, fmt.Errorf("fasthenry: port plus equals reference")
	}
	aop, pre, err := s.portSystem(2 * math.Pi * f)
	if err != nil {
		return 0, 0, err
	}
	nf := len(s.fils)
	b := make([]complex128, aop.Dim())
	b[nf+pr] = aop.rho
	opt := matrix.GMRESOptions{Restart: gmresRestart, Tol: gmresTol, Precond: pre.apply}
	if warm != nil && *warm != nil {
		opt.X0 = *warm
	}
	x, res, err := matrix.GMRES(aop, b, opt)
	if err != nil {
		return 0, res.Iters, fmt.Errorf("fasthenry: GMRES at %g Hz: %w", f, err)
	}
	if !res.Converged {
		return 0, res.Iters, fmt.Errorf(
			"fasthenry: GMRES stalled at %g Hz (residual %.2e after %d iterations); use the dense solve mode",
			f, res.Residual, res.Iters)
	}
	if warm != nil {
		*warm = x
	}
	return aop.rho * x[nf+pr], res.Iters, nil
}
