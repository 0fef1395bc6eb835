package matrix

import (
	"fmt"
	"math"
	"sync"
)

// Multigrid for the SPD power-grid systems (nodal conductance at DC,
// G + C/h transient companions): a smoothed-aggregation hierarchy with
// an optional geometry-aware coarsener for regular meshes, damped-
// Jacobi smoothing, and a V-cycle as the preconditioner of conjugate
// gradients. Setup is O(nnz) per level and the per-cycle work is a
// handful of matvecs, which is what lets static and transient grid
// solves reach 10^6+ unknowns where the sparse direct factorizations
// run out of fill.
//
// A built MG is immutable and safe for concurrent use: every SolvePCG
// call draws its scratch vectors from an internal pool, so many
// goroutines (sessions with conflicting worker counts included) can
// run V-cycles against one shared hierarchy.

// Coarsener supplies geometry-aware aggregates to the hierarchy build.
// Aggregates is called once per level with the level index and system
// size and returns the fine-node -> aggregate map (ids need not be
// dense; negative means singleton), or nil to fall back to the greedy
// algebraic aggregation — the escape hatch for a level the caller's
// geometry does not describe. Implementations may be stateful (each call
// advances to the next level); NewMG calls them from one goroutine.
type Coarsener interface {
	Aggregates(level, n int) []int
}

// MGOptions configures the hierarchy build. The zero value is the
// default for grid conductance systems.
type MGOptions struct {
	// Workers caps the goroutines of smoothing, residual, restriction,
	// prolongation and setup products (0 = process default, 1 = serial).
	Workers int
	// Coarsener, when non-nil, supplies geometry-aware aggregates
	// (regular-mesh coarsening); levels where it returns nil fall back
	// to greedy aggregation.
	Coarsener Coarsener
}

// The fixed shape of the hierarchy and the V-cycle.
const (
	// mgMaxLevels bounds the hierarchy depth.
	mgMaxLevels = 25
	// mgCoarseSize is the size at which coarsening stops and the level
	// is solved by a dense Cholesky factorization.
	mgCoarseSize = 400
	// mgOmega is the damping weight of the Jacobi smoother, which runs
	// one sweep before and one after the coarse correction:
	// worker-parallel and bit-deterministic at any worker count.
	mgOmega = 0.7
	// mgTheta is the strength-of-connection threshold of the greedy
	// aggregation.
	mgTheta = 0.08
	// prolongSmoothOmega is the damping of the prolongator-smoothing
	// step of smoothed aggregation (the usual ~2/3 under-relaxation):
	// P = (I - 2/3 D^-1 A) P0 buys a markedly better convergence factor
	// than plain aggregation for one extra sparse product per level.
	prolongSmoothOmega = 2.0 / 3.0
)

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
	m := &MG{opt: opt}
	cur := a
	for level := 0; ; level++ {
		inv, err := invDiagOf(cur)
		if err != nil {
			return nil, err
		}
		lv := &mgLevel{a: cur, invDiag: inv}
		m.levels = append(m.levels, lv)
		if cur.rows <= mgCoarseSize || level >= mgMaxLevels-1 {
			break
		}
		var agg []int
		if opt.Coarsener != nil {
			agg = opt.Coarsener.Aggregates(level, cur.rows)
		}
		if agg == nil {
			agg = greedyAggregates(cur, mgTheta)
		} else if len(agg) != cur.rows {
			return nil, fmt.Errorf("matrix: coarsener returned %d aggregates for a %d-node level", len(agg), cur.rows)
		}
		nc, aggD := normalizeAggregates(agg)
		if nc == 0 || nc >= cur.rows {
			break // no coarsening progress; solve this level directly
		}
		p := smoothProlongator(cur, inv, aggD, prolongSmoothOmega, opt.Workers)
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
	// Iterations is the PCG iteration count; Residual the final
	// relative residual. Zero until a solve runs.
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
	// MaxIter bounds the PCG iterations (default 200).
	MaxIter int
	// X0, when non-nil, is the warm-start guess (not modified). The
	// transient stepper passes the previous step's solution here.
	X0 []float64
	// Workers overrides the build-time worker count for this solve
	// (0 = inherit). Distinct concurrent solves may use conflicting
	// counts against one shared hierarchy.
	Workers int
	// A, when non-nil, is the SPD system PCG solves in place of the
	// hierarchy's own matrix; the hierarchy's V-cycle still
	// preconditions it. The grid transient solves its DC start G v = b
	// this way on the hierarchy of G + C/h.
	A *CSR
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

// smooth runs one damped-Jacobi sweep on one level. A nil tmp means x
// enters as zero: the sweep skips the product A·0 and overwrites x.
func smooth(lv *mgLevel, x, b, tmp []float64, workers int) {
	if tmp != nil {
		lv.a.MulVecToWorkers(tmp, x, workers)
	}
	if rangeWorkers(workers, len(x), 4096) <= 1 {
		jacobiRows(x, b, tmp, lv.invDiag, 0, len(x))
		return
	}
	ParallelRangeWorkers(workers, len(x), 4096, func(lo, hi int) {
		jacobiRows(x, b, tmp, lv.invDiag, lo, hi)
	})
}

// jacobiRows is one damped-Jacobi update of rows [lo, hi), with
// tmp = A x precomputed, or nil for x = 0: then the update is written
// as 0 + ω D⁻¹ b, which keeps its rounding and sign of zero.
func jacobiRows(x, b, tmp, invDiag []float64, lo, hi int) {
	if tmp == nil {
		for i := lo; i < hi; i++ {
			x[i] = 0 + mgOmega*invDiag[i]*b[i]
		}
		return
	}
	for i := lo; i < hi; i++ {
		x[i] += mgOmega * invDiag[i] * (b[i] - tmp[i])
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

// cycle runs one V-cycle at the given level from a zero start: it
// overwrites x with M^-1 b in multigrid form.
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
	smooth(lv, x, b, nil, workers)
	r := w.r[level]
	lv.a.MulVecToWorkers(r, x, workers)
	vecRange(workers, r, b, subFromRows)
	rc, xc := w.b[level+1], w.x[level+1]
	lv.pt.MulVecToWorkers(rc, r, workers)
	m.cycle(level+1, xc, rc, w, workers)
	lv.p.MulVecToWorkers(r, xc, workers) // r now holds the prolonged correction
	vecRange(workers, x, r, addRows)
	smooth(lv, x, b, w.tmp[level], workers)
}

// SolvePCG runs PCG preconditioned by one V-cycle per iteration — the
// robust route when the grid carries stiff stitches (penalty-stamped
// sources, via shorts) the smoother alone handles poorly. Every work
// vector comes from the pool, so a solve allocates only its result.
// A solve that does not converge in MaxIter iterations returns its
// last iterate with the error. Safe for concurrent use.
func (m *MG) SolvePCG(b []float64, opt MGSolveOptions) ([]float64, MGStats, error) {
	opt.setDefaults()
	st := m.Stats()
	n := m.N()
	a := m.levels[0].a
	if opt.A != nil {
		a = opt.A
	}
	if len(b) != n || a.rows != n || a.cols != n {
		return nil, st, fmt.Errorf("matrix: multigrid system %dx%d with rhs length %d, want %d", a.rows, a.cols, len(b), n)
	}
	workers := m.workersFor(opt)
	w := m.pool.Get().(*mgWork)
	defer m.pool.Put(w)
	// The V-cycle uses w.r[0] as its own residual scratch, so CG keeps
	// its residual in the separate w.pcg vectors.
	vcycle := func(dst, src []float64) { m.cycle(0, dst, src, w, workers) }
	x := make([]float64, n)
	res, err := pcg(CSROp{M: a, Workers: workers}, b, x, PCGOptions{
		Tol: opt.Tol, MaxIters: opt.MaxIter, X0: opt.X0, Precond: vcycle,
	}, w.pcg)
	st.Iterations, st.Residual = res.Iters, res.Residual
	if err != nil {
		return nil, st, fmt.Errorf("matrix: multigrid PCG: %w", err)
	}
	if !res.Converged {
		return x, st, fmt.Errorf("matrix: multigrid PCG did not converge in %d iterations (residual %g)", opt.MaxIter, st.Residual)
	}
	return x, st, nil
}
