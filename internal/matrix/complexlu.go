package matrix

import (
	"fmt"
	"math/cmplx"
)

// CLU is a reusable complex LU factorization with partial pivoting,
// for solves with many right-hand sides at one frequency (the
// FastHenry-style extraction builds Y = A Zb^-1 A^T this way).
type CLU struct {
	lu  *CDense
	piv []int
}

// FactorComplexLU factors the square complex matrix a (not modified).
// A NaN or infinite entry is an error naming the first one in row-major
// order: elimination would otherwise carry it into a solution that
// looks finite, or is all NaN, with no error.
func FactorComplexLU(a *CDense) (*CLU, error) {
	return FactorComplexLUInPlace(a.Clone())
}

// FactorComplexLUInPlace is FactorComplexLU overwriting a with the
// factors, for a caller that refills a before each factorization (a
// sweep worker's preconditioner blocks). a is unchanged when the error
// is about its shape or a non-finite entry, and holds a partial
// elimination after ErrSingular.
func FactorComplexLUInPlace(a *CDense) (*CLU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: complex LU of non-square %dx%d", a.rows, a.cols)
	}
	n := a.rows
	for idx, v := range a.data {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return nil, fmt.Errorf("matrix: complex LU: non-finite entry (%d,%d) = %v", idx/n, idx%n, v)
		}
	}
	lu := a
	d := lu.data
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, mx := k, cmplx.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(d[i*n+k]); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[k*n+j], d[p*n+j] = d[p*n+j], d[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pv := d[k*n+k]
		for i := k + 1; i < n; i++ {
			f := d[i*n+k] / pv
			d[i*n+k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				d[i*n+j] -= f * d[k*n+j]
			}
		}
	}
	return &CLU{lu: lu, piv: piv}, nil
}

// Solve solves a*x = b for one right-hand side.
func (f *CLU) Solve(b []complex128) ([]complex128, error) {
	x := make([]complex128, f.lu.rows)
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo is Solve writing the solution into dst (len n) without
// allocating — the per-iteration form for preconditioner applies.
// dst and b must not alias.
func (f *CLU) SolveTo(dst, b []complex128) error {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("matrix: complex LU solve lengths %d/%d, want %d", len(dst), len(b), n)
	}
	d := f.lu.data
	x := dst
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
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= d[i*n+j] * x[j]
		}
		if d[i*n+i] == 0 {
			return ErrSingular
		}
		x[i] = s / d[i*n+i]
	}
	return nil
}
