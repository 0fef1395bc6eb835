package matrix

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix-free iterative solvers: one restarted GMRES(m) for general
// complex systems and one preconditioned CG for the SPD real case. Both
// operate on pluggable operator interfaces so callers can plug in
// compressed or implicitly defined matrices (the FastHenry-style
// extraction solves R + jωL systems through a hierarchically compressed
// partial-inductance operator without ever forming the dense matrix).

// LinearOperator is a matrix-free real linear operator y = A x.
type LinearOperator interface {
	// Dim returns the (square) operator dimension.
	Dim() int
	// ApplyTo computes dst = A*x. dst and x have length Dim and must
	// not alias.
	ApplyTo(dst, x []float64)
}

// CLinearOperator is a matrix-free complex linear operator y = A x.
type CLinearOperator interface {
	Dim() int
	// ApplyTo computes dst = A*x. dst and x have length Dim and must
	// not alias.
	ApplyTo(dst, x []complex128)
}

// DenseOp adapts a square Dense matrix to LinearOperator.
type DenseOp struct{ M *Dense }

// Dim returns the matrix dimension.
func (o DenseOp) Dim() int { return o.M.Rows() }

// ApplyTo computes dst = M*x.
func (o DenseOp) ApplyTo(dst, x []float64) { o.M.MulVecTo(dst, x) }

// CSCOp adapts a square sparse CSC matrix to LinearOperator.
type CSCOp struct{ M *CSC }

// Dim returns the matrix dimension.
func (o CSCOp) Dim() int { return o.M.Rows() }

// ApplyTo computes dst = M*x.
func (o CSCOp) ApplyTo(dst, x []float64) { o.M.MulVecTo(dst, x) }

// CDenseOp adapts a square CDense matrix to CLinearOperator.
type CDenseOp struct{ M *CDense }

// Dim returns the matrix dimension.
func (o CDenseOp) Dim() int { return o.M.Rows() }

// ApplyTo computes dst = M*x.
func (o CDenseOp) ApplyTo(dst, x []complex128) {
	if o.M.Cols() != len(x) {
		panic("matrix: CDenseOp ApplyTo dimension mismatch")
	}
	n := o.M.Rows()
	for i := 0; i < n; i++ {
		var s complex128
		row := o.M.data[i*o.M.cols : (i+1)*o.M.cols]
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// IterResult reports how an iterative solve went.
type IterResult struct {
	// Iters counts Krylov steps (GMRES Arnoldi steps, CG iterations),
	// one operator application each. It is not the total: GMRES also
	// applies the operator once per cycle for the true residual, the
	// final check included (Iters + Restarts + 1 applies for a nonzero
	// b), and a warm-started CG once for its starting residual.
	Iters int
	// Restarts counts completed GMRES cycles.
	Restarts int
	// Residual is the final relative residual ||b - A x|| / ||b||.
	Residual float64
	// Converged reports whether Residual reached the tolerance.
	Converged bool
}

// GMRESOptions tunes the restarted GMRES solve.
type GMRESOptions struct {
	// Restart is the Krylov subspace dimension per cycle (default 30,
	// capped at the operator dimension).
	Restart int
	// Tol is the relative residual target ||b - A x|| / ||b||
	// (default 1e-10).
	Tol float64
	// MaxIters caps the Krylov steps, IterResult.Iters (default
	// max(100, 10n)).
	MaxIters int
	// X0 is the initial guess (nil = zero). Frequency sweeps warm-start
	// each point with the previous point's solution.
	X0 []complex128
	// Precond applies a right preconditioner: dst = M^{-1} src. The
	// iteration solves A M^{-1} u = b and returns x = M^{-1} u, so the
	// reported residual is the true (unpreconditioned) one. dst and src
	// must not alias. nil means no preconditioning.
	Precond func(dst, src []complex128)
}

// GMRESWork is GMRES's reusable workspace: the Krylov basis and
// Hessenberg columns (allocated as the iteration first reaches them),
// the Givens rotations, the rotated rhs and the operator scratch. A
// sequence of solves of one dimension (a sweep worker's points) that
// runs through one GMRESWork's Solve allocates it once instead of per
// solve; the bits do not depend on it. It serves one solve at a time,
// and its zero value is ready to use.
type GMRESWork struct {
	v, hc         [][]complex128
	cs, sn, g, yv []complex128
	w, z          []complex128
}

// reset sizes the workspace for dimension n and restart m, keeping the
// basis and columns an earlier solve of the same shape allocated. w and
// z are zeroed, as a fresh solve's are.
func (ws *GMRESWork) reset(n, m int) {
	if len(ws.w) != n || len(ws.cs) != m {
		*ws = GMRESWork{
			v: make([][]complex128, m+1), hc: make([][]complex128, m),
			cs: make([]complex128, m), sn: make([]complex128, m),
			g: make([]complex128, m+1), yv: make([]complex128, m),
			w: make([]complex128, n), z: make([]complex128, n),
		}
		return
	}
	clear(ws.w)
	clear(ws.z)
}

func cnorm(v []complex128) float64 {
	s := 0.0
	for _, z := range v {
		s += real(z)*real(z) + imag(z)*imag(z)
	}
	return math.Sqrt(s)
}

// cdotc returns the conjugated inner product a^H b.
func cdotc(a, b []complex128) complex128 {
	var s complex128
	for i, z := range a {
		s += cmplx.Conj(z) * b[i]
	}
	return s
}

// GMRES solves A x = b with restarted GMRES(m): modified Gram-Schmidt
// Arnoldi and Givens rotations. Each restart recomputes the true
// residual, so the reported IterResult.Residual is never an estimate
// drifted by rounding. Returns the best iterate found together with
// the iteration statistics; check IterResult.Converged — a
// non-converged solve is not an error (the caller may fall back to a
// direct solve). A sequence of related solves (a frequency sweep's
// points) warm-starts each solve through opt.X0.
func GMRES(op CLinearOperator, b []complex128, opt GMRESOptions) ([]complex128, IterResult, error) {
	return new(GMRESWork).Solve(op, b, opt)
}

// Solve is GMRES in the workspace ws.
func (ws *GMRESWork) Solve(op CLinearOperator, b []complex128, opt GMRESOptions) ([]complex128, IterResult, error) {
	n := op.Dim()
	if len(b) != n {
		return nil, IterResult{}, fmt.Errorf("matrix: GMRES rhs length %d, want %d", len(b), n)
	}
	m := opt.Restart
	if m <= 0 {
		m = 30
	}
	if m > n {
		m = n
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIt := opt.MaxIters
	if maxIt <= 0 {
		maxIt = 10 * n
		if maxIt < 100 {
			maxIt = 100
		}
	}
	x := make([]complex128, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, IterResult{}, fmt.Errorf("matrix: GMRES x0 length %d, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	}
	res := IterResult{}
	bnorm := cnorm(b)
	if bnorm == 0 {
		// A x = 0 has the exact solution x = 0 for any nonsingular A.
		for i := range x {
			x[i] = 0
		}
		res.Converged = true
		return x, res, nil
	}

	ws.reset(n, m)
	// Workspace: Krylov basis, Hessenberg columns (upper-triangular
	// after rotations), Givens sines/cosines, rotated rhs.
	v, hc, cs, sn, g, w, z := ws.v, ws.hc, ws.cs, ws.sn, ws.g, ws.w, ws.z
	// applyP computes dst = A M^{-1} x, the operator the Krylov cycles
	// iterate on.
	applyP := func(dst, src []complex128) {
		av := src
		if opt.Precond != nil {
			opt.Precond(z, src)
			av = z
		}
		op.ApplyTo(dst, av)
	}

	for {
		// True residual r0 = b - A x.
		op.ApplyTo(w, x)
		if v[0] == nil {
			v[0] = make([]complex128, n)
		}
		for i := range w {
			v[0][i] = b[i] - w[i]
		}
		beta := cnorm(v[0])
		res.Residual = beta / bnorm
		if res.Residual <= tol {
			res.Converged = true
			break
		}
		if res.Iters >= maxIt {
			break
		}
		inv := complex(1/beta, 0)
		for i := range v[0] {
			v[0][i] *= inv
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = complex(beta, 0)

		j := 0
		for ; j < m && res.Iters < maxIt; j++ {
			res.Iters++
			applyP(w, v[j])
			// Orthogonalize against the Krylov basis (modified
			// Gram-Schmidt).
			if hc[j] == nil {
				hc[j] = make([]complex128, m+1)
			}
			col := hc[j]
			for i := 0; i <= j; i++ {
				hcoef := cdotc(v[i], w)
				col[i] = hcoef
				for t := range w {
					w[t] -= hcoef * v[i][t]
				}
			}
			hj1 := cnorm(w)
			col[j+1] = complex(hj1, 0)
			// Apply the accumulated rotations to the new column.
			for i := 0; i < j; i++ {
				t := cmplx.Conj(cs[i])*col[i] + cmplx.Conj(sn[i])*col[i+1]
				col[i+1] = -sn[i]*col[i] + cs[i]*col[i+1]
				col[i] = t
			}
			// New rotation annihilating col[j+1].
			r2 := math.Hypot(cmplx.Abs(col[j]), cmplx.Abs(col[j+1]))
			if r2 == 0 {
				cs[j], sn[j] = 1, 0
			} else {
				cs[j] = col[j] / complex(r2, 0)
				sn[j] = col[j+1] / complex(r2, 0)
			}
			col[j] = complex(r2, 0)
			col[j+1] = 0
			t := cmplx.Conj(cs[j])*g[j] + cmplx.Conj(sn[j])*g[j+1]
			g[j+1] = -sn[j]*g[j] + cs[j]*g[j+1]
			g[j] = t
			res.Residual = cmplx.Abs(g[j+1]) / bnorm
			if hj1 == 0 {
				// Happy breakdown: the Krylov space is invariant.
				j++
				break
			}
			if res.Residual <= tol {
				j++
				break
			}
			if v[j+1] == nil {
				v[j+1] = make([]complex128, n)
			}
			inv := complex(1/hj1, 0)
			for t := range w {
				v[j+1][t] = w[t] * inv
			}
		}
		// Back-substitute R yv = g.
		yv := ws.yv[:j]
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= hc[k][i] * yv[k]
			}
			if hc[i][i] == 0 {
				return x, res, ErrSingular
			}
			yv[i] = s / hc[i][i]
		}
		// x += M^{-1}(V yv).
		for t := range w {
			w[t] = 0
		}
		for i := 0; i < j; i++ {
			yi := yv[i]
			for t := range w {
				w[t] += yi * v[i][t]
			}
		}
		if opt.Precond != nil {
			opt.Precond(z, w)
			for t := range x {
				x[t] += z[t]
			}
		} else {
			for t := range x {
				x[t] += w[t]
			}
		}
		res.Restarts++
	}
	return x, res, nil
}

// PCGOptions tunes the preconditioned conjugate-gradient solve.
type PCGOptions struct {
	// Tol is the relative residual target ||b - A x|| / ||b||
	// (default 1e-10).
	Tol float64
	// MaxIters caps iterations (default max(100, 10n)).
	MaxIters int
	// X0 is the initial guess (nil = zero; not modified). The grid
	// transient warm-starts each step with the previous step's solution.
	X0 []float64
	// Precond applies an SPD preconditioner: dst = M^{-1} src — Jacobi
	// (JacobiPrecond) or a multigrid V-cycle (MG.SolvePCG). dst and src
	// must not alias. nil means no preconditioning.
	Precond func(dst, src []float64)
}

// PCG solves A x = b for a symmetric positive-definite operator with
// preconditioned conjugate gradients. The test ||r|| <= Tol*||b|| runs
// on the starting residual and then after every update. Check
// IterResult.Converged: a stalled solve is reported, not an error; a
// breakdown (p·Ap <= 0, so the operator is not SPD) is an error.
func PCG(op LinearOperator, b []float64, opt PCGOptions) ([]float64, IterResult, error) {
	n := op.Dim()
	if len(b) != n {
		return nil, IterResult{}, fmt.Errorf("matrix: CG rhs length %d, want %d", len(b), n)
	}
	if opt.X0 != nil && len(opt.X0) != n {
		return nil, IterResult{}, fmt.Errorf("matrix: CG x0 length %d, want %d", len(opt.X0), n)
	}
	x := make([]float64, n)
	res, err := pcg(op, b, x, opt, newPCGWork(n))
	return x, res, err
}

// pcgWork is the scratch of one CG solve: residual, preconditioned
// residual, search direction and its operator image.
type pcgWork struct{ r, z, p, ap []float64 }

func newPCGWork(n int) *pcgWork {
	return &pcgWork{
		r: make([]float64, n), z: make([]float64, n),
		p: make([]float64, n), ap: make([]float64, n),
	}
}

// pcg is the CG iteration over caller-owned storage: x (zeroed, length
// n) receives the solution and w supplies every work vector, so a
// pooled caller solves without allocating.
func pcg(op LinearOperator, b, x []float64, opt PCGOptions, w *pcgWork) (IterResult, error) {
	n := len(x)
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIt := opt.MaxIters
	if maxIt <= 0 {
		maxIt = 10 * n
		if maxIt < 100 {
			maxIt = 100
		}
	}
	precond := opt.Precond
	if precond == nil {
		precond = func(dst, src []float64) { copy(dst, src) }
	}
	var res IterResult
	bn := Norm2(b)
	if bn == 0 {
		res.Converged = true
		return res, nil
	}
	r, z, p, ap := w.r, w.z, w.p, w.ap
	if opt.X0 != nil {
		copy(x, opt.X0)
		op.ApplyTo(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
	} else {
		copy(r, b)
	}
	rn := Norm2(r)
	res.Residual = rn / bn
	if rn <= tol*bn {
		res.Converged = true
		return res, nil
	}
	precond(z, r)
	copy(p, z)
	rz := Dot(r, z)
	for res.Iters < maxIt {
		res.Iters++
		op.ApplyTo(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 {
			return res, fmt.Errorf("matrix: CG breakdown, p·Ap = %g (operator not SPD?)", pap)
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		rn = Norm2(r)
		res.Residual = rn / bn
		if rn <= tol*bn {
			res.Converged = true
			return res, nil
		}
		precond(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return res, nil
}
