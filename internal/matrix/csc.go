package matrix

// Scalar is the element type of the sparse direct solvers: the real
// kernels run on float64 (transient companion systems, DC grids), the
// complex ones on complex128 (AC analysis). One generic implementation
// keeps the two factorizations line-for-line identical.
type Scalar interface {
	float64 | complex128
}

// CSCOf is an immutable compressed-sparse-column matrix, the natural
// layout for left-looking sparse factorization. Row indices are strictly
// ascending within each column.
type CSCOf[T Scalar] struct {
	rows, cols int
	colPtr     []int
	rowIdx     []int
	val        []T
}

// CSC is the real-valued compressed-sparse-column matrix.
type CSC = CSCOf[float64]

// CCSC is the complex-valued compressed-sparse-column matrix.
type CCSC = CSCOf[complex128]

// CSCFromParts assembles a CSC matrix from raw column pointers, row
// indices and values (sizes are validated; rows must be ascending per
// column). The slices are NOT copied: the caller hands over ownership.
// This is the assembly door AC analysis and the FastHenry Schur
// preconditioner use to build values over a fixed pattern without
// re-sorting anything.
func CSCFromParts[T Scalar](rows, cols int, colPtr, rowIdx []int, val []T) *CSCOf[T] {
	if len(colPtr) != cols+1 || colPtr[0] != 0 || colPtr[cols] != len(rowIdx) || len(rowIdx) != len(val) {
		panic("matrix: CSCFromParts inconsistent sizes")
	}
	for j := 0; j < cols; j++ {
		if colPtr[j] > colPtr[j+1] {
			panic("matrix: CSCFromParts column pointers not monotone")
		}
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			if rowIdx[p] < 0 || rowIdx[p] >= rows {
				panic("matrix: CSCFromParts row index out of range")
			}
			if p > colPtr[j] && rowIdx[p] <= rowIdx[p-1] {
				panic("matrix: CSCFromParts rows not strictly ascending")
			}
		}
	}
	return &CSCOf[T]{rows: rows, cols: cols, colPtr: colPtr, rowIdx: rowIdx, val: val}
}

// Rows returns the number of rows.
func (m *CSCOf[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSCOf[T]) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSCOf[T]) NNZ() int { return len(m.val) }

// Each visits every stored entry in column-major order.
func (m *CSCOf[T]) Each(fn func(i, j int, v T)) {
	for j := 0; j < m.cols; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			fn(m.rowIdx[p], j, m.val[p])
		}
	}
}

// Pattern returns the column pointers and row indices backing the
// matrix. The slices alias internal storage and must not be modified.
func (m *CSCOf[T]) Pattern() (colPtr, rowIdx []int) { return m.colPtr, m.rowIdx }

// WithValues returns a matrix sharing this one's pattern with a new
// value slice (len must equal NNZ). Pattern slices are shared, not
// copied, so per-frequency AC assembly costs one value array.
func (m *CSCOf[T]) WithValues(val []T) *CSCOf[T] {
	if len(val) != len(m.val) {
		panic("matrix: WithValues length mismatch")
	}
	return &CSCOf[T]{rows: m.rows, cols: m.cols, colPtr: m.colPtr, rowIdx: m.rowIdx, val: val}
}

// MulVecTo writes m*x into y (len y = rows, len x = cols).
func (m *CSCOf[T]) MulVecTo(y []T, x []T) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("matrix: CSC MulVecTo dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			y[m.rowIdx[p]] += m.val[p] * xj
		}
	}
}

// CSCToCSR returns m in compressed sparse row form, columns ascending
// within each row: the counting transpose of m's columns.
func CSCToCSR(m *CSC) *CSR {
	return csrTranspose(&CSR{rows: m.cols, cols: m.rows, rowPtr: m.colPtr, colIdx: m.rowIdx, val: m.val})
}

// CSCToDense materializes a real CSC matrix densely (tests, small
// cases). A free function because Go forbids extra methods on the
// instantiated CSCOf[float64].
func CSCToDense(m *CSC) *Dense {
	d := NewDense(m.rows, m.cols)
	m.Each(func(i, j int, v float64) { d.Set(i, j, v) })
	return d
}
