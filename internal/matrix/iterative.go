package matrix

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix-free iterative solvers: one restarted GMRES(m) for general
// complex systems (with optional Krylov recycling, see recycle.go) and
// one preconditioned CG for the SPD real case. Both operate on
// pluggable operator interfaces so callers can plug in compressed or
// implicitly defined matrices (the FastHenry-style extraction solves
// R + jωL systems through a hierarchically compressed partial-inductance
// operator without ever forming the dense matrix).

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
	// Iters is the number of operator applications (Krylov steps).
	Iters int
	// Restarts counts completed GMRES restart cycles beyond the first.
	Restarts int
	// Residual is the final relative residual ||b - A x|| / ||b||.
	Residual float64
	// Converged reports whether Residual reached the tolerance.
	Converged bool
	// RecycledDim is the deflation-space dimension a recycling GMRES
	// solve ran with (zero for plain solves or an empty recycle space).
	RecycledDim int
	// RecycleApplies counts the extra operator applications spent
	// re-projecting the recycled basis through this solve's operator;
	// the net iteration saving of recycling is the drop in Iters minus
	// this overhead.
	RecycleApplies int
}

// GMRESOptions tunes the restarted GMRES solve.
type GMRESOptions struct {
	// Restart is the Krylov subspace dimension per cycle (default 30,
	// capped at the operator dimension).
	Restart int
	// Tol is the relative residual target ||b - A x|| / ||b||
	// (default 1e-10).
	Tol float64
	// MaxIters caps the total operator applications (default
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
// Arnoldi, Givens rotations, and GCRO-DR-style subspace recycling when
// rs is non-nil. Each restart recomputes the true residual, so the
// reported IterResult.Residual is never an estimate drifted by
// rounding. Returns the best iterate found together with the iteration
// statistics; check IterResult.Converged — a non-converged solve is not
// an error (the caller may fall back to a direct solve).
//
// A nil rs is plain restarted GMRES. A live space is deflated out of
// every Krylov cycle and refreshed from the cycle's harmonic-Ritz
// estimates before returning. For a sequence of related solves (a
// frequency sweep's anchors), pass one RecycleSpace per sequence and
// call rs.Invalidate() whenever the operator changes; the solver
// re-projects the basis through the new operator (the
// IterResult.RecycleApplies operator applications) and each subsequent
// solve starts with the slow modes already deflated.
func GMRES(op CLinearOperator, b []complex128, opt GMRESOptions, rs *RecycleSpace) ([]complex128, IterResult, error) {
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

	z := make([]complex128, n)
	// applyP computes dst = A M^{-1} x, the operator the Krylov cycles
	// iterate on. The recycled basis U lives in solution space (the
	// preconditioner is folded in at harvest time), so its projection
	// C = A U goes through the raw operator — C depends on A only, and
	// stays valid across preconditioner rebuilds at a fixed frequency.
	applyP := func(dst, src []complex128) {
		av := src
		if opt.Precond != nil {
			opt.Precond(z, src)
			av = z
		}
		op.ApplyTo(dst, av)
	}
	// Deflate with the projected pairs only; a freshly harvested tail
	// (len(u) > len(c)) waits for the next Invalidate-triggered
	// projection, so same-operator follow-up solves pay zero applies.
	// hraw is the pristine (pre-Givens) Hessenberg the harvest reads,
	// (m+1) x m like the Arnoldi relation; plain solves skip it.
	kd := 0
	var hraw *CDense
	if rs != nil {
		if !rs.cValid || rs.n != n {
			res.RecycleApplies = rs.project(op.ApplyTo, n)
		}
		kd = len(rs.c)
		res.RecycledDim = kd
		hraw = NewCDense(m+1, m)
	}

	// Workspace: Krylov basis, Hessenberg columns (upper-triangular
	// after rotations), C couplings, Givens sines/cosines, rotated rhs.
	v := make([][]complex128, m+1)
	hc := make([][]complex128, m)
	bmat := make([][]complex128, m) // B = C^H Â V coupling columns
	cs := make([]complex128, m)
	sn := make([]complex128, m)
	g := make([]complex128, m+1)
	w := make([]complex128, n)
	d := make([]complex128, kd)

	var lastJ int
	var lastHj1 float64
	harvested := false
	for {
		// True residual r0 = b - A x, split into the C component (zeroed
		// exactly through U) and the deflated remainder the Krylov cycle
		// works on.
		op.ApplyTo(w, x)
		if v[0] == nil {
			v[0] = make([]complex128, n)
		}
		for i := range w {
			v[0][i] = b[i] - w[i]
		}
		trueRes := cnorm(v[0]) / bnorm
		res.Residual = trueRes
		if trueRes <= tol {
			res.Converged = true
			break
		}
		if res.Iters >= maxIt {
			break
		}
		for i := 0; i < kd; i++ {
			d[i] = cdotc(rs.c[i], v[0])
			for t := range v[0] {
				v[0][t] -= d[i] * rs.c[i][t]
			}
		}
		beta := cnorm(v[0])
		if beta/bnorm <= tol {
			// The residual lives entirely in the recycled space: close it
			// with the U correction alone and re-verify the true residual.
			for i := 0; i < kd; i++ {
				if d[i] == 0 {
					continue
				}
				for t := range x {
					x[t] += d[i] * rs.u[i][t]
				}
			}
			res.Restarts++
			continue
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
		hj1 := 0.0
		for ; j < m && res.Iters < maxIt; j++ {
			res.Iters++
			applyP(w, v[j])
			// Deflate: record the C coupling, then orthogonalize against
			// the Krylov basis (modified Gram-Schmidt).
			if len(bmat[j]) < kd {
				bmat[j] = make([]complex128, kd)
			}
			for i := 0; i < kd; i++ {
				bij := cdotc(rs.c[i], w)
				bmat[j][i] = bij
				for t := range w {
					w[t] -= bij * rs.c[i][t]
				}
			}
			if hc[j] == nil {
				hc[j] = make([]complex128, m+1)
			}
			col := hc[j]
			for i := 0; i <= j; i++ {
				hcoef := cdotc(v[i], w)
				col[i] = hcoef
				if hraw != nil {
					hraw.Set(i, j, hcoef)
				}
				for t := range w {
					w[t] -= hcoef * v[i][t]
				}
			}
			hj1 = cnorm(w)
			col[j+1] = complex(hj1, 0)
			if hraw != nil {
				hraw.Set(j+1, j, complex(hj1, 0))
			}
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
		yv := make([]complex128, j)
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
		// x += M^{-1}(V yv) + U (d - B yv): the Krylov update plus the
		// recycled-space correction that zeroes the C residual component.
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
		for i := 0; i < kd; i++ {
			yu := d[i]
			for c := 0; c < j; c++ {
				yu -= bmat[c][i] * yv[c]
			}
			if yu == 0 {
				continue
			}
			for t := range x {
				x[t] += yu * rs.u[i][t]
			}
		}
		lastJ, lastHj1 = j, hj1
		res.Restarts++
		// Harvest from every full-length cycle, not just the final one:
		// after a restart the last cycle is often 2-3 iterations, far too
		// short to resolve the slow modes worth carrying. harvest replaces
		// the pending tail, so the most recent full cycle wins.
		if rs != nil && j >= recycleHarvest {
			rs.harvest(v, hraw, j, hj1, opt.Precond)
			harvested = true
			// A harvest that overflows MaxDim drops the oldest projected
			// columns; the next cycle deflates only what is left.
			kd = len(rs.c)
		}
	}
	if rs != nil && !harvested && lastJ >= 2 {
		rs.harvest(v, hraw, lastJ, lastHj1, opt.Precond)
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
