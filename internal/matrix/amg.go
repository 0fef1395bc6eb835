package matrix

import (
	"fmt"
	"sort"
)

// Algebraic coarsening machinery for the multigrid solver (mg.go):
// strength-based greedy aggregation, tentative and smoothed-aggregation
// prolongators, the sparse triple product A_c = P^T A P, and the
// row-parallel CSR products they are built from. Everything here is
// deterministic at any worker count: work is partitioned into contiguous
// row chunks whose boundaries depend only on (workers, rows), and each
// output row is computed by exactly one goroutine in a fixed
// per-element order.

// CSRFromParts assembles a CSR matrix from raw row pointers, column
// indices and values (sizes validated; columns must be strictly
// ascending within each row). The slices are NOT copied: the caller
// hands over ownership. This is the assembly door the streaming
// power-grid generator uses to stamp million-node systems without ever
// materializing a triplet list.
func CSRFromParts(rows, cols int, rowPtr, colIdx []int, val []float64) *CSR {
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) || len(colIdx) != len(val) {
		panic("matrix: CSRFromParts inconsistent sizes")
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			panic("matrix: CSRFromParts row pointers not monotone")
		}
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if colIdx[p] < 0 || colIdx[p] >= cols {
				panic("matrix: CSRFromParts column index out of range")
			}
			if p > rowPtr[i] && colIdx[p] <= colIdx[p-1] {
				panic("matrix: CSRFromParts columns not strictly ascending")
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// MulVecToWorkers writes m*x into y with rows fanned out across the
// given worker count (0 = process default). Each row's dot product runs
// in the same element order as MulVecTo, so results are bit-identical
// at every worker count.
func (m *CSR) MulVecToWorkers(y, x []float64, workers int) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("matrix: CSR MulVecToWorkers dimension mismatch")
	}
	if rangeWorkers(workers, m.rows, 2048) <= 1 {
		m.mulRows(y, x, 0, m.rows)
		return
	}
	ParallelRangeWorkers(workers, m.rows, 2048, func(lo, hi int) { m.mulRows(y, x, lo, hi) })
}

// AsSymmetricCSC reinterprets a square symmetric CSR matrix (both
// triangles stored) as a CSC matrix sharing the same index and value
// slices — for a symmetric matrix the two layouts are identical. The
// caller promises symmetry; only the shape is checked.
func (m *CSR) AsSymmetricCSC() *CSC {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: AsSymmetricCSC on non-square %dx%d", m.rows, m.cols))
	}
	return CSCFromParts(m.rows, m.cols, m.rowPtr, m.colIdx, m.val)
}

// AddDiagScaled returns a new matrix sharing m's row pointers and
// column indices with s*d[i] added to each diagonal value — the
// backward-Euler companion build A = G + C/h without reassembly. Every
// row must already store a diagonal entry.
func (m *CSR) AddDiagScaled(s float64, d []float64) (*CSR, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: AddDiagScaled on non-square %dx%d", m.rows, m.cols)
	}
	if len(d) != m.rows {
		return nil, fmt.Errorf("matrix: AddDiagScaled vector length %d, want %d", len(d), m.rows)
	}
	val := make([]float64, len(m.val))
	copy(val, m.val)
	for i := 0; i < m.rows; i++ {
		found := false
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if m.colIdx[p] == i {
				val[p] += s * d[i]
				found = true
				break
			}
		}
		if !found && s*d[i] != 0 {
			return nil, fmt.Errorf("matrix: AddDiagScaled row %d stores no diagonal entry", i)
		}
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, val: val}, nil
}

// csrMul computes the sparse product a*b with rows of the result
// computed in parallel chunks. Within each row, contributions
// accumulate in a's column order then b's column order — an order that
// does not depend on the chunking — and output columns are sorted
// ascending, so the product is bit-deterministic at any worker count.
func csrMul(a, b *CSR, workers int) *CSR {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: csrMul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	n, nc := a.rows, b.cols
	chunks := RangeChunks(workers, n, 256)
	type chunkOut struct {
		cols   []int
		vals   []float64
		rowLen []int
	}
	outs := make([]chunkOut, len(chunks))
	ParallelItems(len(chunks), len(chunks), func(ci int) {
		lo, hi := chunks[ci][0], chunks[ci][1]
		marker := make([]int, nc)
		for i := range marker {
			marker[i] = -1
		}
		acc := make([]float64, nc)
		var touched []int
		o := &outs[ci]
		o.rowLen = make([]int, hi-lo)
		for i := lo; i < hi; i++ {
			touched = touched[:0]
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				k, av := a.colIdx[p], a.val[p]
				for q := b.rowPtr[k]; q < b.rowPtr[k+1]; q++ {
					j := b.colIdx[q]
					if marker[j] != i {
						marker[j] = i
						acc[j] = av * b.val[q]
						touched = append(touched, j)
					} else {
						acc[j] += av * b.val[q]
					}
				}
			}
			sort.Ints(touched)
			o.rowLen[i-lo] = len(touched)
			for _, j := range touched {
				o.cols = append(o.cols, j)
				o.vals = append(o.vals, acc[j])
			}
		}
	})

	nnz := 0
	for i := range outs {
		nnz += len(outs[i].cols)
	}
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	row := 0
	for i := range outs {
		for _, l := range outs[i].rowLen {
			rowPtr[row+1] = rowPtr[row] + l
			row++
		}
		colIdx = append(colIdx, outs[i].cols...)
		val = append(val, outs[i].vals...)
	}
	return &CSR{rows: n, cols: nc, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// csrTranspose returns m^T in CSR form (columns ascending per row).
func csrTranspose(m *CSR) *CSR {
	rowPtr := make([]int, m.cols+1)
	for _, j := range m.colIdx {
		rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	colIdx := make([]int, len(m.colIdx))
	val := make([]float64, len(m.val))
	next := make([]int, m.cols)
	copy(next, rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.colIdx[p]
			colIdx[next[j]] = i
			val[next[j]] = m.val[p]
			next[j]++
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// greedyAggregates computes the plain-aggregation coarsening of a
// symmetric sparse matrix: pass 1 forms an aggregate around every node
// none of whose strong neighbors is aggregated yet (the node plus all
// its strong unaggregated neighbors); pass 2 attaches each leftover
// node to its most strongly coupled aggregated neighbor, or makes it a
// singleton when it has none. Node order is ascending, so the result is
// deterministic. Connection strength is the standard symmetric measure
// |a_ij| / sqrt(a_ii a_jj) >= theta.
func greedyAggregates(a *CSR, theta float64) []int {
	n := a.rows
	d := a.Diag()
	agg := make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	th2 := theta * theta
	strong := func(i, p int) bool {
		j := a.colIdx[p]
		if j == i {
			return false
		}
		v := a.val[p]
		return v*v >= th2*d[i]*d[j]
	}
	next := 0
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		free := true
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if strong(i, p) && agg[a.colIdx[p]] != -1 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[i] = next
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if strong(i, p) {
				agg[a.colIdx[p]] = next
			}
		}
		next++
	}
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		best, bestS := -1, 0.0
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			j := a.colIdx[p]
			if j == i || agg[j] == -1 {
				continue
			}
			v := a.val[p]
			if s := v * v / (d[i] * d[j]); s > bestS {
				bestS, best = s, agg[j]
			}
		}
		if best >= 0 {
			agg[i] = best
		} else {
			agg[i] = next
			next++
		}
	}
	return agg
}

// normalizeAggregates compacts an aggregate map to dense ids
// 0..nc-1 in order of first appearance; negative entries become
// singletons. Returns the aggregate count and the compacted map.
func normalizeAggregates(agg []int) (int, []int) {
	out := make([]int, len(agg))
	remap := make(map[int]int)
	next := 0
	for i, a := range agg {
		if a < 0 {
			out[i] = next
			next++
			continue
		}
		id, ok := remap[a]
		if !ok {
			id = next
			next++
			remap[a] = id
		}
		out[i] = id
	}
	return next, out
}

// tentativeProlongator is the piecewise-constant interpolation of
// plain aggregation: one unit entry per fine row, in its aggregate's
// column.
func tentativeProlongator(n, nc int, agg []int) *CSR {
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = agg[i]
		val[i] = 1
	}
	return &CSR{rows: n, cols: nc, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// smoothProlongator applies one damped-Jacobi smoothing step to the
// tentative prolongator: P = (I - omega D^-1 A) P0. Because every row
// of A stores its diagonal, the pattern of the result equals the
// pattern of A*P0, so the product is computed once and its values
// rewritten in place.
func smoothProlongator(a *CSR, invDiag []float64, agg []int, omega float64, workers int) *CSR {
	p0 := tentativeProlongator(a.rows, maxAgg(agg)+1, agg)
	s := csrMul(a, p0, workers)
	ParallelRangeWorkers(workers, s.rows, 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := omega * invDiag[i]
			for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
				v := -w * s.val[p]
				if s.colIdx[p] == agg[i] {
					v++
				}
				s.val[p] = v
			}
		}
	})
	return s
}

func maxAgg(agg []int) int {
	m := -1
	for _, a := range agg {
		if a > m {
			m = a
		}
	}
	return m
}
