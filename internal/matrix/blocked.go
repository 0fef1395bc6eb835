package matrix

import "math"

// Blocked, tiled dense kernels. Every routine here preserves the exact
// per-entry operation order of the unblocked reference code: each output
// entry accumulates its sum in the same increasing-k order, one multiply
// and one add/sub per term, no FMA. Blocking only reorders work *across*
// entries, and the parallel splits never divide a single entry's sum, so
// the blocked and parallel paths are bit-identical to the reference
// kernels at every worker count (asserted in blocked_test.go).

// blockSize is the panel width of the blocked factorizations and the
// k-chunk of the blocked multiplies. 16 won the block-size sweep on the
// target AVX2 hardware (see DESIGN.md); correctness never depends on it.
const blockSize = 16

// blockedMin is the matrix dimension at which the blocked factorizations
// take over from the unblocked reference kernels. Below it the tiling
// bookkeeping costs more than it saves.
const blockedMin = 2 * blockSize

// mulBlockedMin is the approximate flop count (r*k*c multiply-adds)
// above which Mul and MulTrans switch to the tiled kernels.
const mulBlockedMin = 1 << 15

func imin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// trailingSub applies the delayed update
//
//	d[i][j] -= sum_{m=k0}^{k1-1} d[i][m] * d[m][j]
//
// for i in [i0,i1), j in [j0,j1), on the n x n row-major array d. The
// sum per entry runs in increasing m (chunks of blockSize, increasing m
// within each chunk), matching the one-k-at-a-time rank-1 updates of the
// unblocked LU. The L block (columns [k0,k1)) and U block (rows [k0,k1))
// must not overlap the updated region.
func trailingSub(d []float64, n, i0, i1, j0, j1, k0, k1 int) {
	if i0 >= i1 || j0 >= j1 || k0 >= k1 {
		return
	}
	var pk [blockSize * 4]float64
	j := j0
	for ; j+4 <= j1; j += 4 {
		for kc := k0; kc < k1; kc += blockSize {
			kb := imin(blockSize, k1-kc)
			for m := 0; m < kb; m++ {
				s := d[(kc+m)*n+j : (kc+m)*n+j+4]
				pk[4*m], pk[4*m+1], pk[4*m+2], pk[4*m+3] = s[0], s[1], s[2], s[3]
			}
			i := i0
			if hasAVX2 {
				for ; i+4 <= i1; i += 4 {
					gemmSubAVX2(&d[i*n+j], &d[i*n+kc], &pk[0], n, n, kb)
				}
			}
			for ; i < i1; i++ {
				c := d[i*n+j : i*n+j+4]
				l := d[i*n+kc : i*n+kc+kb]
				c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
				for m, f := range l {
					c0 -= f * pk[4*m]
					c1 -= f * pk[4*m+1]
					c2 -= f * pk[4*m+2]
					c3 -= f * pk[4*m+3]
				}
				c[0], c[1], c[2], c[3] = c0, c1, c2, c3
			}
		}
	}
	for ; j < j1; j++ {
		for i := i0; i < i1; i++ {
			s := d[i*n+j]
			for m := k0; m < k1; m++ {
				s -= d[i*n+m] * d[m*n+j]
			}
			d[i*n+j] = s
		}
	}
}

// factorLUBlocked is the blocked form of factorLUUnblocked: panels of
// blockSize columns are factored with full-height pivot search and
// full-width row swaps (identical to the reference), and the updates of
// the columns right of the panel are delayed and applied as a blocked
// matrix product — the panel rows first (sequentially, since row k
// consumes rows k0..k-1), then the trailing submatrix in parallel
// column strips.
func factorLUBlocked(d []float64, n int, piv []int, workers int) (int, error) {
	sign := 1
	for k0 := 0; k0 < n; k0 += blockSize {
		k1 := imin(k0+blockSize, n)
		for k := k0; k < k1; k++ {
			p, mx := k, math.Abs(d[k*n+k])
			for i := k + 1; i < n; i++ {
				if a := math.Abs(d[i*n+k]); a > mx {
					p, mx = i, a
				}
			}
			if mx == 0 {
				return sign, ErrSingular
			}
			if p != k {
				for j := 0; j < n; j++ {
					d[k*n+j], d[p*n+j] = d[p*n+j], d[k*n+j]
				}
				piv[k], piv[p] = piv[p], piv[k]
				sign = -sign
			}
			pivVal := d[k*n+k]
			for i := k + 1; i < n; i++ {
				f := d[i*n+k] / pivVal
				d[i*n+k] = f
				if f == 0 {
					continue
				}
				for j := k + 1; j < k1; j++ {
					d[i*n+j] -= f * d[k*n+j]
				}
			}
		}
		if k1 == n {
			break
		}
		for k := k0 + 1; k < k1; k++ {
			trailingSub(d, n, k, k+1, k1, n, k0, k)
		}
		ParallelRangeWorkers(workers, n-k1, 2*blockSize, func(lo, hi int) {
			trailingSub(d, n, k1, n, k1+lo, k1+hi, k0, k1)
		})
	}
	return sign, nil
}

// cholUpdateRect applies the delayed left-looking Cholesky update
//
//	ld[i][j] -= sum_{m=k0}^{k1-1} ld[i][m] * ld[j][m]
//
// for i in [i0,i1), j in [j0,j1). The caller guarantees every updated
// entry lies strictly below the diagonal (i >= j1 > j), so the strictly
// upper triangle of ld stays exactly zero.
func cholUpdateRect(ld []float64, n, i0, i1, j0, j1, k0, k1 int) {
	if i0 >= i1 || j0 >= j1 || k0 >= k1 {
		return
	}
	var pk [blockSize * 4]float64
	j := j0
	for ; j+4 <= j1; j += 4 {
		for kc := k0; kc < k1; kc += blockSize {
			kb := imin(blockSize, k1-kc)
			// The "U" operand is rows j..j+3 of L, transposed into the
			// packed tile: pk[4m+t] = ld[j+t][kc+m].
			for m := 0; m < kb; m++ {
				pk[4*m] = ld[j*n+kc+m]
				pk[4*m+1] = ld[(j+1)*n+kc+m]
				pk[4*m+2] = ld[(j+2)*n+kc+m]
				pk[4*m+3] = ld[(j+3)*n+kc+m]
			}
			i := i0
			if hasAVX2 {
				for ; i+4 <= i1; i += 4 {
					gemmSubAVX2(&ld[i*n+j], &ld[i*n+kc], &pk[0], n, n, kb)
				}
			}
			for ; i < i1; i++ {
				c := ld[i*n+j : i*n+j+4]
				l := ld[i*n+kc : i*n+kc+kb]
				c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
				for m, f := range l {
					c0 -= f * pk[4*m]
					c1 -= f * pk[4*m+1]
					c2 -= f * pk[4*m+2]
					c3 -= f * pk[4*m+3]
				}
				c[0], c[1], c[2], c[3] = c0, c1, c2, c3
			}
		}
	}
	for ; j < j1; j++ {
		for i := i0; i < i1; i++ {
			s := ld[i*n+j]
			for m := k0; m < k1; m++ {
				s -= ld[i*n+m] * ld[j*n+m]
			}
			ld[i*n+j] = s
		}
	}
}

// cholRowUpdate is the scalar form of cholUpdateRect for a single row i,
// columns [j0,j1). Used for the panel-strip rows, where the column range
// must be clipped to the lower triangle per row.
func cholRowUpdate(ld []float64, n, i, j0, j1, k0, k1 int) {
	li := ld[i*n+k0 : i*n+k1]
	for j := j0; j < j1; j++ {
		s := ld[i*n+j]
		lj := ld[j*n+k0 : j*n+k1]
		for m, f := range li {
			s -= f * lj[m]
		}
		ld[i*n+j] = s
	}
}

// factorCholeskyBlocked is the blocked form of factorCholeskyUnblocked:
// left-looking over panels of blockSize columns. The update of each
// panel from the already-factored columns [0,j0) is delayed and applied
// as a blocked product — the panel's own rows clipped to the lower
// triangle, the rows below the panel in parallel strips — then the panel
// is factored in place with the reference left-looking loop restricted
// to k in [j0,j).
func factorCholeskyBlocked(ld, ad []float64, n int, workers int) error {
	for i := 0; i < n; i++ {
		copy(ld[i*n:i*n+i+1], ad[i*n:i*n+i+1])
	}
	for j0 := 0; j0 < n; j0 += blockSize {
		j1 := imin(j0+blockSize, n)
		if j0 > 0 {
			for i := j0; i < j1; i++ {
				cholRowUpdate(ld, n, i, j0, imin(i+1, j1), 0, j0)
			}
			ParallelRangeWorkers(workers, n-j1, 2*blockSize, func(lo, hi int) {
				cholUpdateRect(ld, n, j1+lo, j1+hi, j0, j1, 0, j0)
			})
		}
		for j := j0; j < j1; j++ {
			d := ld[j*n+j]
			for k := j0; k < j; k++ {
				d -= ld[j*n+k] * ld[j*n+k]
			}
			if d <= 0 || math.IsNaN(d) {
				return ErrNotPositiveDefinite
			}
			ljj := math.Sqrt(d)
			ld[j*n+j] = ljj
			for i := j + 1; i < n; i++ {
				s := ld[i*n+j]
				for k := j0; k < j; k++ {
					s -= ld[i*n+k] * ld[j*n+k]
				}
				ld[i*n+j] = s / ljj
			}
		}
	}
	return nil
}

// mulBlocked computes out = a*b (out pre-zeroed) with the tiled add
// kernel, parallel over row strips of out.
func mulBlocked(a, b, out *Dense, workers int) {
	ParallelRangeWorkers(workers, a.rows, 2*blockSize, func(lo, hi int) {
		mulRowsBlocked(a, b, out, lo, hi)
	})
}

func mulRowsBlocked(a, b, out *Dense, i0, i1 int) {
	ac, bc := a.cols, b.cols
	ad, bd, od := a.data, b.data, out.data
	var pk [blockSize * 4]float64
	j := 0
	for ; j+4 <= bc; j += 4 {
		for kc := 0; kc < ac; kc += blockSize {
			kb := imin(blockSize, ac-kc)
			for m := 0; m < kb; m++ {
				s := bd[(kc+m)*bc+j : (kc+m)*bc+j+4]
				pk[4*m], pk[4*m+1], pk[4*m+2], pk[4*m+3] = s[0], s[1], s[2], s[3]
			}
			i := i0
			if hasAVX2 {
				for ; i+4 <= i1; i += 4 {
					gemmAddAVX2(&od[i*bc+j], &ad[i*ac+kc], &pk[0], bc, ac, kb)
				}
			}
			for ; i < i1; i++ {
				c := od[i*bc+j : i*bc+j+4]
				l := ad[i*ac+kc : i*ac+kc+kb]
				c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
				for m, f := range l {
					c0 += f * pk[4*m]
					c1 += f * pk[4*m+1]
					c2 += f * pk[4*m+2]
					c3 += f * pk[4*m+3]
				}
				c[0], c[1], c[2], c[3] = c0, c1, c2, c3
			}
		}
	}
	for ; j < bc; j++ {
		for i := i0; i < i1; i++ {
			s := 0.0
			for k := 0; k < ac; k++ {
				s += ad[i*ac+k] * bd[k*bc+j]
			}
			od[i*bc+j] = s
		}
	}
}

// mulTransRows computes rows [i0,i1) of out = a^T * b with both operands
// packed into contiguous tiles (columns of a become the rows of the L
// tile), so the same 4x4 add kernel applies.
func mulTransRows(a, b, out *Dense, i0, i1 int) {
	ar, ac, bc := a.rows, a.cols, b.cols
	ad, bd, od := a.data, b.data, out.data
	var pa, pb [blockSize * 4]float64
	i := i0
	for ; i+4 <= i1; i += 4 {
		for kc := 0; kc < ar; kc += blockSize {
			kb := imin(blockSize, ar-kc)
			for r := 0; r < 4; r++ {
				for m := 0; m < kb; m++ {
					pa[r*kb+m] = ad[(kc+m)*ac+i+r]
				}
			}
			j := 0
			for ; j+4 <= bc; j += 4 {
				for m := 0; m < kb; m++ {
					s := bd[(kc+m)*bc+j : (kc+m)*bc+j+4]
					pb[4*m], pb[4*m+1], pb[4*m+2], pb[4*m+3] = s[0], s[1], s[2], s[3]
				}
				if hasAVX2 {
					gemmAddAVX2(&od[i*bc+j], &pa[0], &pb[0], bc, kb, kb)
				} else {
					for r := 0; r < 4; r++ {
						c := od[(i+r)*bc+j : (i+r)*bc+j+4]
						l := pa[r*kb : r*kb+kb]
						c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
						for m, f := range l {
							c0 += f * pb[4*m]
							c1 += f * pb[4*m+1]
							c2 += f * pb[4*m+2]
							c3 += f * pb[4*m+3]
						}
						c[0], c[1], c[2], c[3] = c0, c1, c2, c3
					}
				}
			}
			for ; j < bc; j++ {
				for r := 0; r < 4; r++ {
					s := od[(i+r)*bc+j]
					for m := 0; m < kb; m++ {
						s += pa[r*kb+m] * bd[(kc+m)*bc+j]
					}
					od[(i+r)*bc+j] = s
				}
			}
		}
	}
	for ; i < i1; i++ {
		for j := 0; j < bc; j++ {
			s := 0.0
			for k := 0; k < ar; k++ {
				s += ad[k*ac+i] * bd[k*bc+j]
			}
			od[i*bc+j] = s
		}
	}
}
