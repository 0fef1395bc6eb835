package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"
)

// Sparse direct LU for the MNA hot paths. The first factorization runs
// left-looking Gilbert-Peierls: a depth-first reach computes each factor
// column's pattern, a sparse triangular solve its values, and threshold
// partial pivoting (diagonal-preferring, as in KLU) picks the pivot row.
// Everything pattern-shaped — the column ordering, the row permutation,
// the L/U structures, and a level schedule of column dependencies — is
// frozen into an immutable symbolic object that numeric
// refactorizations reuse: when only the matrix values change (a new
// transient step size, a new AC frequency), Refactor re-runs the O(flops)
// numeric sweep with no graph traversal, no sorting and no allocation,
// optionally in parallel across independent columns
// (FactorSparseLUWorkers). The triangular solves follow the factor's
// structure: each column's trailing run of consecutive pivot rows (the
// dense block that mutual inductors leave at the end of the ordering)
// is applied as one contiguous update instead of an indexed scatter.

// ErrPivotDrift is returned by Refactor when a pivot that was acceptable
// at analysis time has become negligible relative to its column — the
// cue to redo a full factorization with fresh pivoting.
var ErrPivotDrift = errors.New("matrix: refactorization pivot drifted; factor again with fresh pivoting")

// pivTol is the threshold-pivoting diagonal preference: the structural
// diagonal is kept as pivot when it is within this factor of the
// column's largest candidate. 0.1 trades a bounded element growth for
// the sparsity and refactor stability of diagonal pivots.
const pivTol = 0.1

// driftTol flags refactor pivots that fell this far below their
// column's magnitude; such columns need fresh pivoting.
const driftTol = 1e-10

func absT[T Scalar](v T) float64 {
	switch x := any(v).(type) {
	case float64:
		return math.Abs(x)
	case complex128:
		return cmplx.Abs(x)
	}
	return 0
}

// spSymbolic is the reusable symbolic factorization: permutations,
// factor patterns and the column-dependency level schedule. Immutable
// after construction; safe to share across goroutines and across the
// real/complex numeric objects.
type spSymbolic struct {
	n       int
	q       []int // factor column k holds A column q[k]
	pinv    []int // original row -> pivot position
	rowPerm []int // pivot position -> original row
	lp, li  []int // L pattern: strictly lower, pivot-space rows, ascending
	up, ui  []int // U pattern: upper incl. diagonal (row k last), ascending
	// lRun[k] (uRun[k]) is where column k's trailing run of consecutive
	// rows starts in li (ui, diagonal excluded); runs shorter than
	// minDenseRun are not recorded, so the run is empty.
	lRun, uRun []int
	// Level schedule: column k depends on the columns named by rows of
	// U(:,k); levelCol[levelPtr[l]:levelPtr[l+1]] lists the columns of
	// level l, every one computable once levels < l are done.
	levelPtr []int
	levelCol []int
	// colPtr, rowIdx are the analyzed matrix's pattern (shared with it,
	// not copied), which Refactor checks every matrix against.
	colPtr, rowIdx []int
}

// SparseLUOf is a sparse LU factorization P*A*Q = L*U with values of
// type T over a shared symbolic pattern.
type SparseLUOf[T Scalar] struct {
	sym     *spSymbolic
	lx      []T
	ux      []T
	workers int // worker count for Refactor; 0 = process default
}

// SparseLU is the real-valued sparse factorization (transient companion
// systems, DC grids).
type SparseLU = SparseLUOf[float64]

// SparseCLU is the complex-valued sparse factorization (AC analysis).
type SparseCLU = SparseLUOf[complex128]

// FactorSparseLU orders (minimum degree) and factors the square real
// sparse matrix a.
func FactorSparseLU(a *CSC) (*SparseLU, error) { return FactorSparseOrdered(a, nil) }

// FactorSparseLUWorkers is FactorSparseLU with an explicit worker count
// remembered for Refactor on the returned factorization (and on numeric
// copies made via NewNumeric). workers <= 0 resolves to the process
// default (Workers) at each Refactor.
func FactorSparseLUWorkers(a *CSC, workers int) (*SparseLU, error) {
	f, err := FactorSparseOrdered(a, nil)
	if err != nil {
		return nil, err
	}
	f.workers = workers
	return f, nil
}

// FactorSparseCLU orders and factors the square complex sparse matrix a.
func FactorSparseCLU(a *CCSC) (*SparseCLU, error) { return FactorSparseOrdered(a, nil) }

// FactorSparseCLUWorkers is FactorSparseCLU with an explicit worker
// count remembered for Refactor, as in FactorSparseLUWorkers.
func FactorSparseCLUWorkers(a *CCSC, workers int) (*SparseCLU, error) {
	f, err := FactorSparseOrdered(a, nil)
	if err != nil {
		return nil, err
	}
	f.workers = workers
	return f, nil
}

// FactorSparseOrdered factors a with the given column elimination order
// (nil computes a minimum-degree order). The returned factorization
// carries the symbolic pattern for reuse via Refactor/NewNumeric.
func FactorSparseOrdered[T Scalar](a *CSCOf[T], q []int) (*SparseLUOf[T], error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: sparse LU of non-square %dx%d", a.rows, a.cols)
	}
	n := a.rows
	if q == nil {
		q = orderingOf(a)
	}
	if len(q) != n {
		return nil, fmt.Errorf("matrix: ordering length %d, want %d", len(q), n)
	}

	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	// L under construction, original row indices, scaled values.
	lp := make([]int, n+1)
	li := make([]int, 0, 4*a.NNZ())
	lx := make([]T, 0, 4*a.NNZ())
	// U under construction, pivot-space row indices (diag appended last).
	up := make([]int, n+1)
	ui := make([]int, 0, 4*a.NNZ())
	ux := make([]T, 0, 4*a.NNZ())

	x := make([]T, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	reach := make([]int, 0, n)
	nstack := make([]int, n)
	pstack := make([]int, n)

	for k := 0; k < n; k++ {
		col := q[k]
		if col < 0 || col >= n {
			return nil, fmt.Errorf("matrix: ordering entry %d out of range", col)
		}
		// Symbolic: depth-first reach of A(:,col) through the columns of
		// L built so far. Nodes are original row indices; a pivotal node
		// descends into its factor column's rows. Postorder is collected
		// in reach; reverse postorder is a topological order.
		reach = reach[:0]
		for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
			root := a.rowIdx[p]
			if mark[root] == k {
				continue
			}
			mark[root] = k
			top := 0
			nstack[0] = root
			if j := pinv[root]; j >= 0 {
				pstack[0] = lp[j]
			} else {
				pstack[0] = 0
			}
			for top >= 0 {
				i := nstack[top]
				end := 0
				if j := pinv[i]; j >= 0 {
					end = lp[j+1]
				}
				descended := false
				for pstack[top] < end {
					ch := li[pstack[top]]
					pstack[top]++
					if mark[ch] != k {
						mark[ch] = k
						top++
						nstack[top] = ch
						if j := pinv[ch]; j >= 0 {
							pstack[top] = lp[j]
						} else {
							pstack[top] = 0
						}
						descended = true
						break
					}
				}
				if !descended {
					reach = append(reach, i)
					top--
				}
			}
		}

		// Numeric: scatter A(:,col) and run the sparse triangular solve
		// in reverse postorder.
		for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
			x[a.rowIdx[p]] = a.val[p]
		}
		for idx := len(reach) - 1; idx >= 0; idx-- {
			i := reach[idx]
			j := pinv[i]
			if j < 0 {
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			for p := lp[j]; p < lp[j+1]; p++ {
				x[li[p]] -= lx[p] * xi
			}
		}

		// Pivot: largest-magnitude candidate among not-yet-pivotal rows,
		// with threshold preference for the structural diagonal.
		pivRow, pivMag, diagMag := -1, 0.0, -1.0
		for _, i := range reach {
			if pinv[i] >= 0 {
				continue
			}
			m := absT(x[i])
			if m > pivMag {
				pivMag, pivRow = m, i
			}
			if i == col {
				diagMag = m
			}
		}
		if pivRow < 0 || pivMag == 0 {
			return nil, ErrSingular
		}
		if diagMag > 0 && diagMag >= pivTol*pivMag {
			pivRow = col
		}
		pivVal := x[pivRow]

		// U column k: previously pivotal rows, then the diagonal.
		for _, i := range reach {
			if j := pinv[i]; j >= 0 {
				ui = append(ui, j)
				ux = append(ux, x[i])
			}
		}
		ui = append(ui, k)
		ux = append(ux, pivVal)
		up[k+1] = len(ui)
		pinv[pivRow] = k

		// L column k: remaining candidates, scaled by the pivot.
		for _, i := range reach {
			if pinv[i] < 0 {
				li = append(li, i)
				lx = append(lx, x[i]/pivVal)
			}
			x[i] = 0
		}
		lp[k+1] = len(li)
	}

	sym := &spSymbolic{
		n: n, q: append([]int(nil), q...), pinv: pinv,
		rowPerm: make([]int, n),
		lp:      lp, li: li, up: up, ui: ui,
		colPtr: a.colPtr, rowIdx: a.rowIdx,
	}
	for i, k := range pinv {
		sym.rowPerm[k] = i
	}
	// Map L rows to pivot space and sort both factors' columns ascending
	// (ascending is a topological order for triangular access, which is
	// what Refactor's fixed sweep relies on).
	for p := range li {
		li[p] = pinv[li[p]]
	}
	sortColumns(lp, li, lx, n)
	sortColumns(up, ui, ux, n)
	sym.lRun = runStarts(lp, li, n, 0)
	sym.uRun = runStarts(up, ui, n, 1)
	sym.buildLevels()
	return &SparseLUOf[T]{sym: sym, lx: lx, ux: ux}, nil
}

// sortColumns sorts each CSC column's (row, value) pairs ascending in
// O(nnz): a transpose lists every row's columns in ascending order, and
// transposing back lists every column's rows in ascending order. Rows
// lie in [0, n).
func sortColumns[T Scalar](cp, ri []int, v []T, n int) {
	rp := make([]int, n+1)
	for _, r := range ri {
		rp[r+1]++
	}
	for r := 0; r < n; r++ {
		rp[r+1] += rp[r]
	}
	ci := make([]int, len(ri))
	tv := make([]T, len(ri))
	next := append([]int(nil), rp[:n]...)
	for k := 0; k < n; k++ {
		for p := cp[k]; p < cp[k+1]; p++ {
			q := next[ri[p]]
			next[ri[p]]++
			ci[q], tv[q] = k, v[p]
		}
	}
	copy(next, cp[:n])
	for r := 0; r < n; r++ {
		for q := rp[r]; q < rp[r+1]; q++ {
			p := next[ci[q]]
			next[ci[q]]++
			ri[p], v[p] = r, tv[q]
		}
	}
}

// minDenseRun is the shortest trailing run the triangular solves apply
// as a contiguous update; shorter tails stay in the indexed loop, where
// they cost no call.
const minDenseRun = 4

// runStarts returns, for each column of the ascending CSC pattern
// (cp, ri), where its trailing run of consecutive rows begins, leaving
// out the last skip entries of the column. A run shorter than
// minDenseRun is reported as empty (its start is the column end).
func runStarts(cp, ri []int, n, skip int) []int {
	rs := make([]int, n)
	for k := 0; k < n; k++ {
		lo, end := cp[k], cp[k+1]-skip
		p := end
		if p > lo {
			p--
			for p > lo && ri[p-1] == ri[p]-1 {
				p--
			}
		}
		if end-p < minDenseRun {
			p = end
		}
		rs[k] = p
	}
	return rs
}

// subScaled computes y[i] -= x[i]*a over len(y) entries: the contiguous
// run update of the triangular solves. Real runs use the AVX2 kernel,
// which rounds every multiply and subtract separately, exactly like the
// scalar loop.
func subScaled[T Scalar](y, x []T, a T) {
	if hasAVX2 {
		if yp, ok := any(&y[0]).(*float64); ok {
			axpySubAVX2(yp, any(&x[0]).(*float64), any(a).(float64), len(y))
			return
		}
	}
	x = x[:len(y)]
	for i := range y {
		y[i] -= x[i] * a
	}
}

// buildLevels computes the column-dependency level schedule from the U
// pattern: column k waits on the columns named by rows of U(:,k).
func (s *spSymbolic) buildLevels() {
	n := s.n
	level := make([]int, n)
	maxLevel := 0
	for k := 0; k < n; k++ {
		lv := 0
		for p := s.up[k]; p < s.up[k+1]-1; p++ {
			if l := level[s.ui[p]] + 1; l > lv {
				lv = l
			}
		}
		level[k] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	s.levelPtr = make([]int, maxLevel+2)
	for _, lv := range level {
		s.levelPtr[lv+1]++
	}
	for l := 0; l < maxLevel+1; l++ {
		s.levelPtr[l+1] += s.levelPtr[l]
	}
	s.levelCol = make([]int, n)
	fill := append([]int(nil), s.levelPtr...)
	for k := 0; k < n; k++ {
		s.levelCol[fill[level[k]]] = k
		fill[level[k]]++
	}
}

// NewNumeric returns an empty numeric factorization sharing this one's
// symbolic pattern; fill it with Refactor. This is how per-frequency AC
// workers and per-step-size transient factors avoid re-analysis.
func (f *SparseLUOf[T]) NewNumeric() *SparseLUOf[T] {
	return &SparseLUOf[T]{sym: f.sym, lx: make([]T, len(f.lx)), ux: make([]T, len(f.ux)), workers: f.workers}
}

// N returns the factored system dimension.
func (f *SparseLUOf[T]) N() int { return f.sym.n }

// FactorNNZ returns the number of stored entries in L and U combined, a
// fill diagnostic for tests and benchmarks.
func (f *SparseLUOf[T]) FactorNNZ() int { return len(f.lx) + len(f.ux) }

// Refactor recomputes the numeric factorization of a, which must have
// exactly the sparsity pattern the factorization was analyzed on (any
// other pattern is an error), using the frozen pivot order. No
// allocation or graph work happens; columns on the same dependency
// level run in parallel, using the worker count the factorization was
// created with (the *Workers constructors) or the process default. Returns ErrSingular on a zero pivot and ErrPivotDrift
// when a pivot lost too much magnitude relative to its column — in both
// cases the caller should fall back to a fresh FactorSparseLU.
func (f *SparseLUOf[T]) Refactor(a *CSCOf[T]) error {
	s := f.sym
	if a.rows != s.n || a.cols != s.n {
		return fmt.Errorf("matrix: Refactor dimension %dx%d, want %d", a.rows, a.cols, s.n)
	}
	if !s.samePattern(a.colPtr, a.rowIdx) {
		return fmt.Errorf("matrix: Refactor pattern differs from the analyzed one (%d nonzeros, analyzed %d)", a.NNZ(), len(s.rowIdx))
	}
	workers := f.workers
	if workers <= 0 {
		workers = Workers()
	}
	if workers <= 1 || s.n < 64 {
		w := make([]T, s.n)
		return f.refactorCols(a, w, s.levelCol) // levelCol covers every column; serial order is valid
	}
	pool := sync.Pool{New: func() any { return make([]T, s.n) }}
	var mu sync.Mutex
	var firstErr error
	for l := 0; l+1 < len(s.levelPtr); l++ {
		cols := s.levelCol[s.levelPtr[l]:s.levelPtr[l+1]]
		ParallelRangeWorkers(workers, len(cols), 16, func(lo, hi int) {
			w := pool.Get().([]T)
			if err := f.refactorCols(a, w, cols[lo:hi]); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			pool.Put(w)
		})
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// samePattern reports whether (colPtr, rowIdx) is the analyzed
// pattern. Slices that are the analyzed ones, as WithValues passes them
// on, skip the O(nnz) compare.
func (s *spSymbolic) samePattern(colPtr, rowIdx []int) bool {
	if len(colPtr) != len(s.colPtr) || len(rowIdx) != len(s.rowIdx) {
		return false
	}
	if &colPtr[0] == &s.colPtr[0] && (len(rowIdx) == 0 || &rowIdx[0] == &s.rowIdx[0]) {
		return true
	}
	return slices.Equal(colPtr, s.colPtr) && slices.Equal(rowIdx, s.rowIdx)
}

// refactorCols replays the numeric sweep for the given factor columns.
// w is a dense workspace that must be all-zero on entry; it is restored
// to all-zero before returning (even on error), so pooled workspaces
// stay clean.
func (f *SparseLUOf[T]) refactorCols(a *CSCOf[T], w []T, cols []int) error {
	s := f.sym
	for _, k := range cols {
		col := s.q[k]
		for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
			w[s.pinv[a.rowIdx[p]]] = a.val[p]
		}
		colMax := 0.0
		dp := s.up[k+1] - 1
		for p := s.up[k]; p < dp; p++ {
			r := s.ui[p]
			v := w[r]
			f.ux[p] = v
			if m := absT(v); m > colMax {
				colMax = m
			}
			if v != 0 {
				for pp := s.lp[r]; pp < s.lp[r+1]; pp++ {
					w[s.li[pp]] -= f.lx[pp] * v
				}
			}
		}
		piv := w[k]
		f.ux[dp] = piv
		pm := absT(piv)
		if pm > colMax {
			colMax = pm
		}
		for pp := s.lp[k]; pp < s.lp[k+1]; pp++ {
			if m := absT(w[s.li[pp]]); m > colMax {
				colMax = m
			}
		}
		var err error
		if piv == 0 {
			err = ErrSingular
		} else if pm < driftTol*colMax {
			err = ErrPivotDrift
		} else {
			for pp := s.lp[k]; pp < s.lp[k+1]; pp++ {
				f.lx[pp] = w[s.li[pp]] / piv
			}
		}
		// Clear the workspace along the column's pattern (the pattern is
		// closed under the updates above, so this restores all-zero).
		for p := s.up[k]; p < s.up[k+1]; p++ {
			w[s.ui[p]] = 0
		}
		w[k] = 0
		for pp := s.lp[k]; pp < s.lp[k+1]; pp++ {
			w[s.li[pp]] = 0
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Solve solves A*x = b for one right-hand side. b is not modified.
func (f *SparseLUOf[T]) Solve(b []T) ([]T, error) {
	n := f.sym.n
	if len(b) != n {
		return nil, fmt.Errorf("matrix: sparse LU solve rhs length %d, want %d", len(b), n)
	}
	x := make([]T, n)
	if err := f.SolveTo(x, b, make([]T, n)); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo is Solve writing into dst (len n), reusing scratch (len n, any
// contents) to avoid per-step allocation in transient loops. dst, b and
// scratch must not alias each other.
func (f *SparseLUOf[T]) SolveTo(dst, b, scratch []T) error {
	s := f.sym
	n := s.n
	if len(b) != n || len(dst) != n || len(scratch) != n {
		return fmt.Errorf("matrix: sparse LU SolveTo length mismatch")
	}
	y := scratch
	for k := 0; k < n; k++ {
		y[k] = b[s.rowPerm[k]]
	}
	// Forward substitution with unit L (columns, pivot space).
	for k := 0; k < n; k++ {
		yk := y[k]
		if yk == 0 {
			continue
		}
		run, end := s.lRun[k], s.lp[k+1]
		for p := s.lp[k]; p < run; p++ {
			y[s.li[p]] -= f.lx[p] * yk
		}
		if run < end {
			r0 := s.li[run]
			subScaled(y[r0:r0+end-run], f.lx[run:end], yk)
		}
	}
	// Back substitution with U (columns, diagonal last per column).
	for k := n - 1; k >= 0; k-- {
		dp := s.up[k+1] - 1
		d := f.ux[dp]
		if d == 0 {
			return ErrSingular
		}
		yk := y[k] / d
		y[k] = yk
		if yk == 0 {
			continue
		}
		run := s.uRun[k]
		for p := s.up[k]; p < run; p++ {
			y[s.ui[p]] -= f.ux[p] * yk
		}
		if run < dp {
			r0 := s.ui[run]
			subScaled(y[r0:r0+dp-run], f.ux[run:dp], yk)
		}
	}
	for k := 0; k < n; k++ {
		dst[s.q[k]] = y[k]
	}
	return nil
}
