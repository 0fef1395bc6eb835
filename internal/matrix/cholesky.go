package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by FactorCholesky when the matrix is
// not (numerically) symmetric positive definite. Sparsification methods
// in internal/sparsify rely on this as the passivity test: a partial
// inductance matrix that loses positive definiteness describes a circuit
// that can generate energy (the paper's argument against naive
// truncation).
var ErrNotPositiveDefinite = errors.New("matrix: matrix is not positive definite")

// Cholesky holds the lower-triangular factor of A = L*L^T.
type Cholesky struct {
	l       *Dense
	workers int // worker count for SolveMat; 0 = process default
}

// FactorCholesky computes the Cholesky factorization of the symmetric
// positive definite matrix a. Only the lower triangle of a is read.
// Matrices of dimension blockedMin and up go through the cache-blocked,
// parallel kernel; the result is bit-identical to
// FactorCholeskyUnblocked at every worker count. The worker count is the
// process default; FactorCholeskyWorkers pins it per run.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	return factorCholesky(a, a.rows >= blockedMin, 0)
}

// FactorCholeskyWorkers is FactorCholesky with an explicit worker count
// used by the factorization and remembered for SolveMat on the returned
// factor. workers <= 0 resolves to the process default (Workers).
func FactorCholeskyWorkers(a *Dense, workers int) (*Cholesky, error) {
	return factorCholesky(a, a.rows >= blockedMin, workers)
}

// FactorCholeskyUnblocked runs the serial, unblocked reference
// factorization regardless of size. It exists as the ground truth for
// the equivalence tests and speedup benchmarks; solvers should call
// FactorCholesky.
func FactorCholeskyUnblocked(a *Dense) (*Cholesky, error) {
	return factorCholesky(a, false, 0)
}

func factorCholesky(a *Dense, blocked bool, workers int) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: Cholesky of non-square %dx%d", a.rows, a.cols)
	}
	n := a.rows
	l := NewDense(n, n)
	var err error
	if blocked {
		err = factorCholeskyBlocked(l.data, a.data, n, workers)
	} else {
		err = factorCholeskyUnblocked(l.data, a.data, n)
	}
	if err != nil {
		return nil, err
	}
	return &Cholesky{l: l, workers: workers}, nil
}

// factorCholeskyUnblocked is the reference kernel: left-looking
// column-by-column factorization of the lower triangle.
func factorCholeskyUnblocked(ld, ad []float64, n int) error {
	for j := 0; j < n; j++ {
		d := ad[j*n+j]
		for k := 0; k < j; k++ {
			d -= ld[j*n+k] * ld[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		ld[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := ad[i*n+j]
			for k := 0; k < j; k++ {
				s -= ld[i*n+k] * ld[j*n+k]
			}
			ld[i*n+j] = s / ljj
		}
	}
	return nil
}

// Solve solves A*x = b using the factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.l.rows
	if len(b) != n {
		return nil, fmt.Errorf("matrix: Cholesky solve rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	copy(x, b)
	c.solveInPlace(x)
	return x, nil
}

// solveInPlace overwrites x (length n) with A^-1 x — Solve without the
// allocation, for the multigrid coarse level.
func (c *Cholesky) solveInPlace(x []float64) {
	n := c.l.rows
	ld := c.l.data
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= ld[i*n+k] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
	// Backward: L^T x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
}

// SolveMat solves A*X = B column by column. Columns are independent
// triangular solves, so they run in parallel (each with its own
// scratch); per-column results are identical to the serial loop.
func (c *Cholesky) SolveMat(b *Dense) (*Dense, error) {
	n := c.l.rows
	if b.rows != n {
		return nil, fmt.Errorf("matrix: Cholesky SolveMat rhs rows %d, want %d", b.rows, n)
	}
	x := NewDense(n, b.cols)
	errs := make([]error, b.cols)
	minChunk := 8
	if n >= 128 {
		minChunk = 1
	}
	ParallelRangeWorkers(c.workers, b.cols, minChunk, func(lo, hi int) {
		col := make([]float64, n)
		for j := lo; j < hi; j++ {
			for i := 0; i < n; i++ {
				col[i] = b.data[i*b.cols+j]
			}
			sol, err := c.Solve(col)
			if err != nil {
				errs[j] = err
				return
			}
			for i := 0; i < n; i++ {
				x.data[i*b.cols+j] = sol[i]
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l.Clone() }

// LogDet returns log(det(A)) = 2*sum(log L_ii), without overflow for
// large matrices of tiny inductance values.
func (c *Cholesky) LogDet() float64 {
	n := c.l.rows
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Log(c.l.data[i*n+i])
	}
	return 2 * s
}

// IsPositiveDefinite reports whether the symmetric matrix a admits a
// Cholesky factorization. This is the passivity audit used throughout
// internal/sparsify.
func IsPositiveDefinite(a *Dense) bool {
	_, err := FactorCholesky(a)
	return err == nil
}

// MinEigenEstimate returns an estimate of the smallest eigenvalue of the
// symmetric matrix a, via bisection on t such that a - t*I stays positive
// definite. Accurate to rel*|lambda| relative precision; used by
// diagnostics and tests to quantify *how* indefinite a truncated
// inductance matrix has become.
func MinEigenEstimate(a *Dense, rel float64) float64 {
	if a.rows != a.cols {
		panic("matrix: MinEigenEstimate needs a square matrix")
	}
	n := a.rows
	if n == 0 {
		return 0
	}
	// Gershgorin bounds.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				r += math.Abs(a.data[i*n+j])
			}
		}
		d := a.data[i*n+i]
		lo = math.Min(lo, d-r)
		hi = math.Max(hi, d+r)
	}
	shifted := func(t float64) bool {
		s := a.Clone()
		for i := 0; i < n; i++ {
			s.data[i*n+i] -= t
		}
		return IsPositiveDefinite(s)
	}
	// lambda_min is in [lo, hi]; PD(a - t I) iff t < lambda_min.
	span := hi - lo
	if span == 0 {
		return lo
	}
	a1, b1 := lo, hi
	for i := 0; i < 100 && (b1-a1) > rel*math.Max(math.Abs(a1), math.Abs(b1))+1e-300; i++ {
		mid := (a1 + b1) / 2
		if shifted(mid) {
			a1 = mid
		} else {
			b1 = mid
		}
	}
	return (a1 + b1) / 2
}
