package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// LU holds an LU factorization with partial pivoting: P*A = L*U where L
// is unit lower triangular and U upper triangular, packed into a single
// matrix.
type LU struct {
	lu  *Dense
	piv []int // row i of the factor came from row piv[i] of A
}

// FactorLU computes the LU factorization with partial pivoting of the
// square matrix a. a is not modified. Matrices of dimension blockedMin
// and up go through the cache-blocked, parallel kernel; the result is
// bit-identical to FactorLUUnblocked at every worker count (the blocked
// kernel preserves the reference per-entry operation order). The worker
// count is the process default; FactorLUWorkers pins it per run.
func FactorLU(a *Dense) (*LU, error) {
	return factorLU(a, a.rows >= blockedMin, 0)
}

// FactorLUWorkers is FactorLU with an explicit worker count for the
// factorization. workers <= 0 resolves to the process default
// (Workers).
func FactorLUWorkers(a *Dense, workers int) (*LU, error) {
	return factorLU(a, a.rows >= blockedMin, workers)
}

// FactorLUUnblocked runs the serial, unblocked reference factorization
// regardless of size. It exists as the ground truth for the equivalence
// tests and speedup benchmarks; solvers should call FactorLU.
func FactorLUUnblocked(a *Dense) (*LU, error) {
	return factorLU(a, false, 0)
}

func factorLU(a *Dense, blocked bool, workers int) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: LU of non-square %dx%d", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	var err error
	if blocked {
		err = factorLUBlocked(lu.data, n, piv, workers)
	} else {
		err = factorLUUnblocked(lu.data, n, piv)
	}
	if err != nil {
		return nil, err
	}
	return &LU{lu: lu, piv: piv}, nil
}

// factorLUUnblocked is the reference kernel: right-looking LU with
// partial pivoting, immediate rank-1 trailing updates.
func factorLUUnblocked(d []float64, n int, piv []int) error {
	for k := 0; k < n; k++ {
		// Pivot: largest |d[i][k]| for i >= k.
		p, mx := k, math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(d[i*n+k]); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[k*n+j], d[p*n+j] = d[p*n+j], d[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := d[k*n+k]
		for i := k + 1; i < n; i++ {
			f := d[i*n+k] / pivVal
			d[i*n+k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				d[i*n+j] -= f * d[k*n+j]
			}
		}
	}
	return nil
}

// Solve solves A*x = b for one right-hand side. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("matrix: LU solve rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	d := f.lu.data
	// Apply permutation, then forward substitution with unit L.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= d[i*n+j] * x[j]
		}
		u := d[i*n+i]
		if u == 0 {
			return nil, ErrSingular
		}
		x[i] = s / u
	}
	return x, nil
}

// SolveDense is a convenience wrapper: factor a and solve a*x = b.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
