package matrix

import "fmt"

// Sparse matrices for the large power-grid flows. Assembly happens in a
// coordinate (triplet) log; solves run on immutable CSR/CSC forms.

// Triplet is an append-only log of (i, j, v) stamps, the natural target
// for MNA stamping. Duplicates are summed when the log is frozen (ToCSR,
// ToCSC, FreezeUnion), each position's stamps in the order they were
// added, so every sum equals accumulating 0 + v1 + v2 + … one stamp at a
// time.
type Triplet struct {
	rows, cols int
	is, js     []int
	vs         []float64
}

// NewTriplet returns an empty r x c builder.
func NewTriplet(r, c int) *Triplet { return &Triplet{rows: r, cols: c} }

// Rows returns the number of rows.
func (t *Triplet) Rows() int { return t.rows }

// Cols returns the number of columns.
func (t *Triplet) Cols() int { return t.cols }

// Add logs v at (i, j). A zero v is not logged.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.rows || j < 0 || j >= t.cols {
		panic(fmt.Sprintf("matrix: triplet index (%d,%d) out of range %dx%d", i, j, t.rows, t.cols))
	}
	if v == 0 {
		return
	}
	t.is = append(t.is, i)
	t.js = append(t.js, j)
	t.vs = append(t.vs, v)
}

// NNZ returns the number of distinct positions stamped, including those
// whose stamps sum to exactly zero.
func (t *Triplet) NNZ() int { return t.csc().NNZ() }

// ToCSR freezes the builder into compressed sparse row form, dropping
// positions whose stamps sum to exactly zero.
func (t *Triplet) ToCSR() *CSR { return CSCToCSR(t.ToCSC()) }

// ToCSC freezes the builder into compressed sparse column form, dropping
// positions whose stamps sum to exactly zero.
func (t *Triplet) ToCSC() *CSC {
	m := t.csc()
	m.colPtr, m.rowIdx, m.val = dropZeros(m.colPtr, m.rowIdx, m.val)
	return m
}

// Each visits every stamped position once, in (row, col) order, with its
// sum; positions whose stamps sum to exactly zero are visited with 0.
func (t *Triplet) Each(fn func(i, j int, v float64)) {
	m := CSCToCSR(t.csc())
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			fn(i, m.colIdx[p], m.val[p])
		}
	}
}

// ToDense materializes the builder as a dense matrix (tests, small cases).
func (t *Triplet) ToDense() *Dense {
	d := NewDense(t.rows, t.cols)
	t.Each(d.Set)
	return d
}

// csc freezes the log alone, zero sums kept.
func (t *Triplet) csc() *CSC {
	colPtr, rowIdx, vals := FreezeUnion(0, t)
	return &CSC{rows: t.rows, cols: t.cols, colPtr: colPtr, rowIdx: rowIdx, val: vals[0]}
}

// FreezeUnion freezes stamp logs of one shape onto one shared CSC
// pattern: every position any of them stamps, zero sums included, plus
// the diagonal (i, i) of each i < diag. vals[k] holds ts[k]'s sums over
// that pattern, 0 where ts[k] has no stamp. The sums run in log order,
// so each position adds up its stamps in the order they were appended.
// An MNA pencil (G, C) is frozen this way once, and every analysis
// matrix is derived from it position by position.
func FreezeUnion(diag int, ts ...*Triplet) (colPtr, rowIdx []int, vals [][]float64) {
	rows, cols := ts[0].rows, ts[0].cols
	if diag > rows || diag > cols {
		panic(fmt.Sprintf("matrix: FreezeUnion diagonal %d outside %dx%d", diag, rows, cols))
	}
	total := diag
	for _, t := range ts {
		if t.rows != rows || t.cols != cols {
			panic(fmt.Sprintf("matrix: FreezeUnion shape mismatch %dx%d vs %dx%d", t.rows, t.cols, rows, cols))
		}
		total += len(t.vs)
	}
	is, js := make([]int, 0, total), make([]int, 0, total)
	for _, t := range ts {
		is, js = append(is, t.is...), append(js, t.js...)
	}
	for i := 0; i < diag; i++ {
		is, js = append(is, i), append(js, i)
	}
	colPtr, rowIdx, slot := freeze(cols, rows, js, is)
	vals = make([][]float64, len(ts))
	for k, t := range ts {
		vals[k] = make([]float64, len(rowIdx))
		for e, v := range t.vs {
			vals[k][slot[e]] += v
		}
		slot = slot[len(t.vs):]
	}
	return colPtr, rowIdx, vals
}

// freeze is the one sparse assembly routine. It sorts the positions
// (major[k], minor[k]) by major, then minor, with two stable counting
// passes in O(len + nMajor + nMinor), and returns the compressed
// pattern: ptr over the major index, idx the distinct minor indices,
// strictly ascending within each major, and slot[k], the pattern
// position of entry k.
func freeze(nMajor, nMinor int, major, minor []int) (ptr, idx, slot []int) {
	byMinor := countingOrder(nMinor, minor, nil)
	order := countingOrder(nMajor, major, byMinor)
	ptr = make([]int, nMajor+1)
	idx = make([]int, 0, len(order))
	slot = byMinor // free once order is built
	lastMajor, lastMinor := -1, -1
	for _, k := range order {
		if major[k] != lastMajor || minor[k] != lastMinor {
			lastMajor, lastMinor = major[k], minor[k]
			idx = append(idx, lastMinor)
			ptr[lastMajor+1]++
		}
		slot[k] = len(idx) - 1
	}
	for m := 0; m < nMajor; m++ {
		ptr[m+1] += ptr[m]
	}
	return ptr, idx, slot
}

// countingOrder returns the entries sorted stably by key (each in
// [0, nKeys)), taken in the order in lists them (0, 1, … when in is nil).
func countingOrder(nKeys int, key, in []int) []int {
	next := make([]int, nKeys+1)
	for _, k := range key {
		next[k+1]++
	}
	for k := 0; k < nKeys; k++ {
		next[k+1] += next[k]
	}
	out := make([]int, len(key))
	for p := range key {
		e := p
		if in != nil {
			e = in[p]
		}
		out[next[key[e]]] = e
		next[key[e]]++
	}
	return out
}

// dropZeros removes, in place, the entries that summed to exactly zero.
func dropZeros(ptr, idx []int, val []float64) ([]int, []int, []float64) {
	n := 0
	for m := 0; m+1 < len(ptr); m++ {
		lo, hi := ptr[m], ptr[m+1]
		ptr[m] = n
		for p := lo; p < hi; p++ {
			if val[p] != 0 {
				idx[n], val[n] = idx[p], val[p]
				n++
			}
		}
	}
	ptr[len(ptr)-1] = n
	return ptr, idx[:n], val[:n]
}

// CSR is an immutable compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.val) }

// MulVec returns m*x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("matrix: CSR MulVec dimension mismatch")
	}
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo writes m*x into y (must have length m.Rows()).
func (m *CSR) MulVecTo(y, x []float64) { m.mulRows(y, x, 0, m.rows) }

// mulRows writes rows [lo, hi) of m*x into y.
func (m *CSR) mulRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p] * x[m.colIdx[p]]
		}
		y[i] = s
	}
}

// MulDense returns m*b for a dense b. Row i of the product accumulates
// the rows of b that row i of m selects, so both stay row-major.
func (m *CSR) MulDense(b *Dense) *Dense {
	if m.cols != b.rows {
		panic("matrix: CSR MulDense dimension mismatch")
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		dst := out.Row(i)
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			Axpy(m.val[p], b.Row(m.colIdx[p]), dst)
		}
	}
	return out
}

// Diag returns the diagonal as a slice (zeros where absent).
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if m.colIdx[p] == i {
				d[i] = m.val[p]
			}
		}
	}
	return d
}

// ToDense materializes the CSR matrix densely.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			d.Set(i, m.colIdx[p], m.val[p])
		}
	}
	return d
}

// CSROp adapts a square CSR matrix to LinearOperator. Workers caps the
// goroutines of each product (0 = process default); every row is
// accumulated in the same order at any count, so results are
// bit-identical.
type CSROp struct {
	M       *CSR
	Workers int
}

// Dim returns the matrix dimension.
func (o CSROp) Dim() int { return o.M.Rows() }

// ApplyTo computes dst = M*x.
func (o CSROp) ApplyTo(dst, x []float64) { o.M.MulVecToWorkers(dst, x, o.Workers) }

// JacobiPrecond returns the Jacobi (diagonal) preconditioner of a
// square SPD matrix for PCG: dst = D^-1 src. Power/ground grid
// conductance systems are SPD, which is why the paper's combined
// technique can use Cholesky; Jacobi-preconditioned CG is the
// iterative analogue for the large sparse path. A non-positive
// diagonal entry, which no SPD matrix has, is an error.
func JacobiPrecond(m *CSR) (func(dst, src []float64), error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: Jacobi preconditioner needs a square matrix, got %dx%d", m.rows, m.cols)
	}
	invD := m.Diag()
	for i, d := range invD {
		if d <= 0 {
			return nil, fmt.Errorf("matrix: CG diagonal %d = %g not positive", i, d)
		}
		invD[i] = 1 / d
	}
	return func(dst, src []float64) {
		for i := range dst {
			dst[i] = invD[i] * src[i]
		}
	}, nil
}
