package matrix

import (
	"fmt"
	"math"
)

// Sparse Cholesky for the SPD systems of the power-grid flows (the
// sparse analogue of the paper's combined-technique Cholesky): minimum
// degree ordering, elimination tree, then an up-looking numeric
// factorization that computes one row of L per step from the row's
// elimination-tree reach — the classical cs_chol organization.

// SparseChol is the sparse Cholesky factorization P*A*P^T = L*L^T.
// Columns of L store their diagonal entry first.
type SparseChol struct {
	n          int
	perm, pinv []int // new index k <-> original node perm[k]
	lp, li     []int
	lx         []float64
}

// FactorSparseCholesky factors the symmetric positive definite sparse
// matrix a (both triangles stored, as BuildSparseDC assembles it).
// Returns ErrNotPositiveDefinite when a is not numerically SPD — the
// same passivity signal the dense FactorCholesky gives sparsification
// audits.
func FactorSparseCholesky(a *CSC) (*SparseChol, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: sparse Cholesky of non-square %dx%d", a.rows, a.cols)
	}
	n := a.rows
	perm := orderingOf(a)
	pinv := make([]int, n)
	for k, v := range perm {
		pinv[v] = k
	}

	// Upper triangle of P*A*P^T in CSC form, columns sorted. a stores
	// each position once, so nothing sums, and stored zeros stay.
	var rows, cols []int
	var vals []float64
	a.Each(func(i, j int, v float64) {
		if ni, nj := pinv[i], pinv[j]; ni <= nj {
			rows, cols, vals = append(rows, ni), append(cols, nj), append(vals, v)
		}
	})
	cp, ci, slot := freeze(n, n, cols, rows)
	cx := make([]float64, len(ci))
	for k, v := range vals {
		cx[slot[k]] = v
	}

	// Elimination tree of the permuted pattern.
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	for k := 0; k < n; k++ {
		for p := cp[k]; p < cp[k+1]; p++ {
			for i := ci[p]; i != -1 && i < k; {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
					break
				}
				i = next
			}
		}
	}

	// ereach walks each below-diagonal entry of column k up the etree to
	// the already-marked region, yielding the pattern of row k of L in an
	// order where every node precedes its ancestors.
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	stack := make([]int, n)
	path := make([]int, n)
	ereach := func(k int) int {
		top := n
		w[k] = k
		for p := cp[k]; p < cp[k+1]; p++ {
			i := ci[p]
			if i >= k {
				continue
			}
			ln := 0
			for w[i] != k {
				path[ln] = i
				ln++
				w[i] = k
				i = parent[i]
			}
			for ln > 0 {
				ln--
				top--
				stack[top] = path[ln]
			}
		}
		return top
	}

	// Pass 1: column counts (row-subtree sizes).
	count := make([]int, n)
	for k := 0; k < n; k++ {
		count[k]++ // diagonal
		for top := ereach(k); top < n; top++ {
			count[stack[top]]++
		}
	}
	lp := make([]int, n+1)
	for k := 0; k < n; k++ {
		lp[k+1] = lp[k] + count[k]
	}
	li := make([]int, lp[n])
	lx := make([]float64, lp[n])
	fill := make([]int, n)

	// Pass 2: up-looking numeric factorization.
	for i := range w {
		w[i] = -1
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		top := ereach(k)
		d := 0.0
		for p := cp[k]; p < cp[k+1]; p++ {
			if i := ci[p]; i < k {
				x[i] = cx[p]
			} else if i == k {
				d = cx[p]
			}
		}
		for ; top < n; top++ {
			i := stack[top]
			lki := x[i] / lx[lp[i]]
			x[i] = 0
			for p := lp[i] + 1; p < lp[i]+fill[i]; p++ {
				x[li[p]] -= lx[p] * lki
			}
			d -= lki * lki
			p := lp[i] + fill[i]
			li[p] = k
			lx[p] = lki
			fill[i]++
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		li[lp[k]] = k
		lx[lp[k]] = math.Sqrt(d)
		fill[k] = 1
	}
	return &SparseChol{n: n, perm: perm, pinv: pinv, lp: lp, li: li, lx: lx}, nil
}

// N returns the factored system dimension.
func (c *SparseChol) N() int { return c.n }

// FactorNNZ returns the number of stored entries of L, a fill
// diagnostic.
func (c *SparseChol) FactorNNZ() int { return len(c.lx) }

// Solve solves A*x = b using the factorization. b is not modified.
func (c *SparseChol) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("matrix: sparse Cholesky solve rhs length %d, want %d", len(b), c.n)
	}
	n := c.n
	y := make([]float64, n)
	for k := 0; k < n; k++ {
		y[k] = b[c.perm[k]]
	}
	// Forward: L y' = y (diag first per column).
	for k := 0; k < n; k++ {
		yk := y[k] / c.lx[c.lp[k]]
		y[k] = yk
		if yk == 0 {
			continue
		}
		for p := c.lp[k] + 1; p < c.lp[k+1]; p++ {
			y[c.li[p]] -= c.lx[p] * yk
		}
	}
	// Backward: L^T x' = y'.
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for p := c.lp[k] + 1; p < c.lp[k+1]; p++ {
			s -= c.lx[p] * y[c.li[p]]
		}
		y[k] = s / c.lx[c.lp[k]]
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[c.perm[k]] = y[k]
	}
	return x, nil
}

// IsSparsePositiveDefinite reports whether the symmetric sparse matrix
// admits a Cholesky factorization — the sparse counterpart of
// IsPositiveDefinite.
func IsSparsePositiveDefinite(a *CSC) bool {
	_, err := FactorSparseCholesky(a)
	return err == nil
}
