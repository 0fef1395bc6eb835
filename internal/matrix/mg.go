package matrix

import (
	"fmt"
	"math"
	"sync"
)

// Multigrid for the SPD power-grid systems (nodal conductance at DC,
// G + C/h transient companions): a smoothed-aggregation hierarchy with
// an optional geometry-aware coarsener for regular meshes, weighted-
// Jacobi or Gauss-Seidel smoothing, and a V-cycle usable standalone or
// as the preconditioner of conjugate gradients. Setup is O(nnz) per
// level and the per-cycle work is a handful of matvecs, which is what
// lets static-IR and transient solves reach 10^6+ unknowns where the
// sparse direct factorizations run out of fill.
//
// A built MG is immutable and safe for concurrent use: every Solve
// call draws its scratch vectors from an internal pool, so many
// goroutines (sessions with conflicting worker counts included) can
// run V-cycles against one shared hierarchy.

// MGSmoother selects the relaxation scheme of the V-cycle.
type MGSmoother int

const (
	// SmootherJacobi is weighted (damped) Jacobi: worker-parallel and
	// bit-deterministic at any worker count. The default.
	SmootherJacobi MGSmoother = iota
	// SmootherGaussSeidel is symmetric Gauss-Seidel (forward sweeps
	// before coarse correction, backward after — keeping the cycle a
	// symmetric operator, as PCG requires). Serial but a stronger
	// smoother per sweep.
	SmootherGaussSeidel
)

// String names the smoother.
func (s MGSmoother) String() string {
	switch s {
	case SmootherGaussSeidel:
		return "gauss-seidel"
	default:
		return "jacobi"
	}
}

// Coarsener supplies geometry-aware aggregates to the hierarchy build.
// Aggregates is called once per level with the level index and system
// size and returns the fine-node -> aggregate map (ids need not be
// dense; negative means singleton), or nil to fall back to the greedy
// algebraic aggregation — the escape hatch irregular stitches and
// deep/small levels take. Implementations may be stateful (each call
// advances to the next level); NewMG calls them from one goroutine.
type Coarsener interface {
	Aggregates(level, n int) []int
}

// MGOptions configures the hierarchy build and the cycle shape. The
// zero value is a sensible default for grid conductance systems.
type MGOptions struct {
	// Workers caps the goroutines of smoothing, residual, restriction,
	// prolongation and setup products (0 = process default, 1 = serial).
	Workers int
	// MaxLevels bounds the hierarchy depth (default 25).
	MaxLevels int
	// CoarseSize is the size at which coarsening stops and the level is
	// solved by a dense Cholesky factorization (default 400).
	CoarseSize int
	// Smoother selects the relaxation scheme.
	Smoother MGSmoother
	// Omega is the Jacobi damping weight (default 0.7; ignored by
	// Gauss-Seidel).
	Omega float64
	// PreSweeps/PostSweeps are the smoothing sweeps before and after the
	// coarse correction (default 1 each).
	PreSweeps, PostSweeps int
	// PlainProlong disables prolongator smoothing (plain aggregation).
	// The default is smoothed aggregation: P = (I - 2/3 D^-1 A) P0,
	// which buys a markedly better convergence factor for one extra
	// sparse product per level.
	PlainProlong bool
	// Theta is the strength-of-connection threshold of the greedy
	// aggregation (default 0.08).
	Theta float64
	// Coarsener, when non-nil, supplies geometry-aware aggregates
	// (regular-mesh coarsening); levels where it returns nil fall back
	// to greedy aggregation.
	Coarsener Coarsener
}

func (o *MGOptions) setDefaults() error {
	if o.MaxLevels == 0 {
		o.MaxLevels = 25
	}
	if o.CoarseSize == 0 {
		o.CoarseSize = 400
	}
	if o.Omega == 0 {
		o.Omega = 0.7
	}
	if o.PreSweeps == 0 {
		o.PreSweeps = 1
	}
	if o.PostSweeps == 0 {
		o.PostSweeps = 1
	}
	if o.Theta == 0 {
		o.Theta = 0.08
	}
	if o.MaxLevels < 2 {
		return fmt.Errorf("matrix: multigrid needs MaxLevels >= 2, got %d", o.MaxLevels)
	}
	if o.CoarseSize < 1 {
		return fmt.Errorf("matrix: non-positive multigrid CoarseSize %d", o.CoarseSize)
	}
	if o.Omega < 0 || o.Omega > 1 {
		return fmt.Errorf("matrix: multigrid Jacobi weight %g outside (0, 1]", o.Omega)
	}
	if o.PreSweeps < 0 || o.PostSweeps < 0 {
		return fmt.Errorf("matrix: negative multigrid smoothing sweeps")
	}
	if o.Theta < 0 || o.Theta >= 1 {
		return fmt.Errorf("matrix: multigrid strength threshold %g outside [0, 1)", o.Theta)
	}
	switch o.Smoother {
	case SmootherJacobi, SmootherGaussSeidel:
	default:
		return fmt.Errorf("matrix: unknown multigrid smoother %d", int(o.Smoother))
	}
	return nil
}

// prolongSmoothOmega is the damping of the prolongator-smoothing step
// of smoothed aggregation (the usual ~2/3 under-relaxation).
const prolongSmoothOmega = 2.0 / 3.0

type mgLevel struct {
	a       *CSR
	invDiag []float64
	p, pt   *CSR // nil on the coarsest level
}

// MG is an immutable multigrid hierarchy over one SPD matrix.
type MG struct {
	opt    MGOptions
	levels []*mgLevel
	// coarse factors the symmetrically scaled coarsest system
	// D^-1/2 A D^-1/2 (coarseScale = diag(D^-1/2)): scaling makes the
	// singularity detection scale-free and keeps grid systems with
	// extreme diagonal spread (gmin vs penalty stamps) well-pivoted.
	coarse      *Cholesky
	coarseScale []float64
	pool        sync.Pool // *mgWork
}

// mgWork is one concurrent solve's scratch: per-level vectors plus the
// PCG vectors on the fine level.
type mgWork struct {
	x, b, r, tmp [][]float64
	pcg          *pcgWork
}

// NewMG builds the multigrid hierarchy for the symmetric positive
// definite matrix a (both triangles stored). The build is deterministic
// at any worker count. Returns an error when a row has a non-positive
// diagonal or the coarsest level is not positive definite — the
// signature of a singular system (a grid region disconnected from
// every pad).
func NewMG(a *CSR, opt MGOptions) (*MG, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: multigrid needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	m := &MG{opt: opt}
	cur := a
	for level := 0; ; level++ {
		inv, err := invDiagOf(cur)
		if err != nil {
			return nil, err
		}
		lv := &mgLevel{a: cur, invDiag: inv}
		m.levels = append(m.levels, lv)
		if cur.rows <= opt.CoarseSize || level >= opt.MaxLevels-1 {
			break
		}
		var agg []int
		if opt.Coarsener != nil {
			agg = opt.Coarsener.Aggregates(level, cur.rows)
		}
		if agg == nil {
			agg = greedyAggregates(cur, opt.Theta)
		} else if len(agg) != cur.rows {
			return nil, fmt.Errorf("matrix: coarsener returned %d aggregates for a %d-node level", len(agg), cur.rows)
		}
		nc, aggD := normalizeAggregates(agg)
		if nc == 0 || nc >= cur.rows {
			break // no coarsening progress; solve this level directly
		}
		var p *CSR
		if opt.PlainProlong {
			p = tentativeProlongator(cur.rows, nc, aggD)
		} else {
			p = smoothProlongator(cur, inv, aggD, prolongSmoothOmega, opt.Workers)
		}
		pt := csrTranspose(p)
		lv.p, lv.pt = p, pt
		cur = csrMul(pt, csrMul(cur, p, opt.Workers), opt.Workers)
	}
	last := m.levels[len(m.levels)-1]
	coarse := last.a
	// Symmetric diagonal scaling to unit diagonal before the dense
	// factorization: equivalent in exact arithmetic, but it equilibrates
	// systems whose diagonal spans many orders of magnitude (gmin vs
	// penalty stamps) and makes the pivot test below scale-free.
	scale := make([]float64, coarse.rows)
	for i := range scale {
		scale[i] = math.Sqrt(last.invDiag[i])
	}
	sd := coarse.ToDense()
	for i := 0; i < coarse.rows; i++ {
		for j := 0; j < coarse.cols; j++ {
			sd.Set(i, j, sd.At(i, j)*scale[i]*scale[j])
		}
	}
	ch, err := FactorCholesky(sd)
	if err != nil {
		return nil, fmt.Errorf("matrix: multigrid coarse system (%d unknowns) is not positive definite — singular grid (a region disconnected from every pad?): %w", coarse.rows, err)
	}
	// Roundoff carries a singular coarse system through the factorization
	// with tiny positive pivots instead of a clean failure; on the unit-
	// diagonal scaled system the semidefinite-detection criterion is
	// simply pivot^2 <= c*n*eps.
	thresh := 16 * float64(coarse.rows) * 2.220446049250313e-16
	ldiag := ch.L()
	for j := 0; j < coarse.rows; j++ {
		if p := ldiag.At(j, j); p*p <= thresh {
			return nil, fmt.Errorf("matrix: multigrid coarse system (%d unknowns) is not positive definite — singular grid (a region disconnected from every pad?): scaled pivot %d is %g", coarse.rows, j, p*p)
		}
	}
	m.coarse, m.coarseScale = ch, scale
	m.pool.New = func() any { return m.newWork() }
	return m, nil
}

func invDiagOf(a *CSR) ([]float64, error) {
	inv := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		d := 0.0
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if a.colIdx[p] == i {
				d = a.val[p]
				break
			}
		}
		if d <= 0 {
			return nil, fmt.Errorf("matrix: multigrid row %d has non-positive diagonal %g (system not SPD)", i, d)
		}
		inv[i] = 1 / d
	}
	return inv, nil
}

func (m *MG) newWork() *mgWork {
	nl := len(m.levels)
	w := &mgWork{
		x:   make([][]float64, nl),
		b:   make([][]float64, nl),
		r:   make([][]float64, nl),
		tmp: make([][]float64, nl),
	}
	for l, lv := range m.levels {
		n := lv.a.rows
		if l > 0 {
			w.x[l] = make([]float64, n)
			w.b[l] = make([]float64, n)
		}
		w.r[l] = make([]float64, n)
		w.tmp[l] = make([]float64, n)
	}
	w.pcg = newPCGWork(m.levels[0].a.rows)
	return w
}

// N returns the fine-level system dimension.
func (m *MG) N() int { return m.levels[0].a.rows }

// MGStats describes a hierarchy and, after a solve, its convergence.
type MGStats struct {
	// Levels is the hierarchy depth, Unknowns the fine system size,
	// CoarseUnknowns the direct-solved coarsest size.
	Levels, Unknowns, CoarseUnknowns int
	// OperatorComplexity is sum(nnz(A_l)) / nnz(A_0) — the memory and
	// per-cycle work multiplier of the hierarchy. GridComplexity is the
	// same ratio over unknown counts.
	OperatorComplexity, GridComplexity float64
	// Iterations is the V-cycle count (standalone) or PCG iteration
	// count; Residual the final relative residual. Zero until a solve
	// runs.
	Iterations int
	Residual   float64
}

// Stats reports the hierarchy's structural statistics.
func (m *MG) Stats() MGStats {
	st := MGStats{
		Levels:         len(m.levels),
		Unknowns:       m.levels[0].a.rows,
		CoarseUnknowns: m.levels[len(m.levels)-1].a.rows,
	}
	nnz0, n0 := float64(m.levels[0].a.NNZ()), float64(m.levels[0].a.rows)
	for _, lv := range m.levels {
		st.OperatorComplexity += float64(lv.a.NNZ()) / nnz0
		st.GridComplexity += float64(lv.a.rows) / n0
	}
	return st
}

// MGSolveOptions configures one solve against a built hierarchy.
type MGSolveOptions struct {
	// Tol is the relative residual target (default 1e-10).
	Tol float64
	// MaxIter bounds V-cycles / PCG iterations (default 200).
	MaxIter int
	// X0, when non-nil, is the warm-start guess (not modified). The
	// transient stepper passes the previous step's solution here.
	X0 []float64
	// Workers overrides the build-time worker count for this solve
	// (0 = inherit). Distinct concurrent solves may use conflicting
	// counts against one shared hierarchy.
	Workers int
}

func (o *MGSolveOptions) setDefaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
}

func (m *MG) workersFor(opt MGSolveOptions) int {
	if opt.Workers > 0 {
		return opt.Workers
	}
	return m.opt.Workers
}

// smooth runs the configured relaxation sweeps on one level. post
// selects the backward direction of symmetric Gauss-Seidel.
func (m *MG) smooth(lv *mgLevel, x, b, tmp []float64, sweeps, workers int, post bool) {
	if m.opt.Smoother == SmootherGaussSeidel {
		for s := 0; s < sweeps; s++ {
			gsSweep(lv, x, b, post)
		}
		return
	}
	omega := m.opt.Omega
	for s := 0; s < sweeps; s++ {
		lv.a.MulVecToWorkers(tmp, x, workers)
		if rangeWorkers(workers, len(x), 4096) <= 1 {
			jacobiRows(x, b, tmp, lv.invDiag, omega, 0, len(x))
			continue
		}
		ParallelRangeWorkers(workers, len(x), 4096, func(lo, hi int) {
			jacobiRows(x, b, tmp, lv.invDiag, omega, lo, hi)
		})
	}
}

// jacobiRows is one damped-Jacobi update of rows [lo, hi), with
// tmp = A x precomputed.
func jacobiRows(x, b, tmp, invDiag []float64, omega float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		x[i] += omega * invDiag[i] * (b[i] - tmp[i])
	}
}

// vecRange applies op to [0, len(dst)) split like ParallelRangeWorkers,
// inline when one goroutine suffices (see rangeWorkers).
func vecRange(workers int, dst, src []float64, op func(dst, src []float64, lo, hi int)) {
	const minChunk = 8192
	if rangeWorkers(workers, len(dst), minChunk) <= 1 {
		op(dst, src, 0, len(dst))
		return
	}
	ParallelRangeWorkers(workers, len(dst), minChunk, func(lo, hi int) { op(dst, src, lo, hi) })
}

// subFromRows sets r = b - r on [lo, hi).
func subFromRows(r, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] = b[i] - r[i]
	}
}

// addRows sets x += d on [lo, hi).
func addRows(x, d []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		x[i] += d[i]
	}
}

func gsSweep(lv *mgLevel, x, b []float64, backward bool) {
	a := lv.a
	n := a.rows
	update := func(i int) {
		s := b[i]
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if j := a.colIdx[p]; j != i {
				s -= a.val[p] * x[j]
			}
		}
		x[i] = s * lv.invDiag[i]
	}
	if backward {
		for i := n - 1; i >= 0; i-- {
			update(i)
		}
	} else {
		for i := 0; i < n; i++ {
			update(i)
		}
	}
}

// cycle runs one V-cycle at the given level: x += M^-1 (b - A x) in
// multigrid form. x is the current iterate (updated in place).
func (m *MG) cycle(level int, x, b []float64, w *mgWork, workers int) {
	lv := m.levels[level]
	if level == len(m.levels)-1 {
		// The factor holds D^-1/2 A D^-1/2; undo the scaling around it.
		// b may be the caller's vector (single-level hierarchy), so the
		// scaled copy goes into the level's otherwise-unused smoother
		// scratch.
		sb := w.tmp[level]
		for i := range b {
			sb[i] = b[i] * m.coarseScale[i]
		}
		m.coarse.solveInPlace(sb)
		for i, y := range sb {
			x[i] = m.coarseScale[i] * y
		}
		return
	}
	m.smooth(lv, x, b, w.tmp[level], m.opt.PreSweeps, workers, false)
	r := w.r[level]
	lv.a.MulVecToWorkers(r, x, workers)
	vecRange(workers, r, b, subFromRows)
	rc, xc := w.b[level+1], w.x[level+1]
	lv.pt.MulVecToWorkers(rc, r, workers)
	for i := range xc {
		xc[i] = 0
	}
	m.cycle(level+1, xc, rc, w, workers)
	lv.p.MulVecToWorkers(r, xc, workers) // r now holds the prolonged correction
	vecRange(workers, x, r, addRows)
	m.smooth(lv, x, b, w.tmp[level], m.opt.PostSweeps, workers, true)
}

// residualNorm writes b - A*x into r and returns its 2-norm.
func (m *MG) residualNorm(x, b, r []float64, workers int) float64 {
	m.levels[0].a.MulVecToWorkers(r, x, workers)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return Norm2(r)
}

// Solve runs standalone V-cycle iteration to the relative residual
// target. Safe for concurrent use.
func (m *MG) Solve(b []float64, opt MGSolveOptions) ([]float64, MGStats, error) {
	opt.setDefaults()
	st := m.Stats()
	n := m.N()
	if len(b) != n {
		return nil, st, fmt.Errorf("matrix: multigrid rhs length %d, want %d", len(b), n)
	}
	workers := m.workersFor(opt)
	x := make([]float64, n)
	if opt.X0 != nil {
		copy(x, opt.X0)
	}
	bn := Norm2(b)
	if bn == 0 {
		return x, st, nil
	}
	w := m.pool.Get().(*mgWork)
	defer m.pool.Put(w)
	for it := 1; it <= opt.MaxIter; it++ {
		m.cycle(0, x, b, w, workers)
		res := m.residualNorm(x, b, w.r[0], workers) / bn
		if res <= opt.Tol {
			st.Iterations, st.Residual = it, res
			return x, st, nil
		}
		st.Iterations, st.Residual = it, res
	}
	return nil, st, fmt.Errorf("matrix: multigrid did not converge in %d V-cycles (residual %g)", opt.MaxIter, st.Residual)
}

// SolvePCG runs PCG preconditioned by one V-cycle per iteration — the
// robust route when the grid carries stiff stitches (penalty-stamped
// sources, via shorts) the smoother alone handles poorly. Every work
// vector comes from the pool, so a solve allocates only its result.
// Safe for concurrent use.
func (m *MG) SolvePCG(b []float64, opt MGSolveOptions) ([]float64, MGStats, error) {
	opt.setDefaults()
	st := m.Stats()
	n := m.N()
	if len(b) != n {
		return nil, st, fmt.Errorf("matrix: multigrid rhs length %d, want %d", len(b), n)
	}
	workers := m.workersFor(opt)
	w := m.pool.Get().(*mgWork)
	defer m.pool.Put(w)
	// The V-cycle uses w.r[0] as its own residual scratch, so CG keeps
	// its residual in the separate w.pcg vectors.
	vcycle := func(dst, src []float64) {
		for i := range dst {
			dst[i] = 0
		}
		m.cycle(0, dst, src, w, workers)
	}
	x := make([]float64, n)
	res, err := pcg(CSROp{M: m.levels[0].a, Workers: workers}, b, x, PCGOptions{
		Tol: opt.Tol, MaxIters: opt.MaxIter, X0: opt.X0, Precond: vcycle,
	}, w.pcg)
	st.Iterations, st.Residual = res.Iters, res.Residual
	if err != nil {
		return nil, st, fmt.Errorf("matrix: multigrid PCG: %w", err)
	}
	if !res.Converged {
		return nil, st, fmt.Errorf("matrix: multigrid PCG did not converge in %d iterations (residual %g)", opt.MaxIter, st.Residual)
	}
	return x, st, nil
}
