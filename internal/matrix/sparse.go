package matrix

import (
	"fmt"
	"sort"
)

// Sparse matrices for the large power-grid flows. Assembly happens in a
// coordinate (triplet) builder; solves run on an immutable CSR form.

// Triplet accumulates (i, j, v) entries with duplicate summation, the
// natural target for MNA stamping of large grids.
type Triplet struct {
	rows, cols int
	entries    map[[2]int]float64
}

// NewTriplet returns an empty r x c builder.
func NewTriplet(r, c int) *Triplet {
	return &Triplet{rows: r, cols: c, entries: make(map[[2]int]float64)}
}

// Rows returns the number of rows.
func (t *Triplet) Rows() int { return t.rows }

// Cols returns the number of columns.
func (t *Triplet) Cols() int { return t.cols }

// Add accumulates v at (i, j).
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.rows || j < 0 || j >= t.cols {
		panic(fmt.Sprintf("matrix: triplet index (%d,%d) out of range %dx%d", i, j, t.rows, t.cols))
	}
	if v == 0 {
		return
	}
	t.entries[[2]int{i, j}] += v
}

// NNZ returns the number of stored entries.
func (t *Triplet) NNZ() int { return len(t.entries) }

// ToCSR freezes the builder into compressed sparse row form.
func (t *Triplet) ToCSR() *CSR {
	type ent struct {
		i, j int
		v    float64
	}
	es := make([]ent, 0, len(t.entries))
	for k, v := range t.entries {
		if v != 0 {
			es = append(es, ent{k[0], k[1], v})
		}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].i != es[b].i {
			return es[a].i < es[b].i
		}
		return es[a].j < es[b].j
	})
	m := &CSR{
		rows:   t.rows,
		cols:   t.cols,
		rowPtr: make([]int, t.rows+1),
		colIdx: make([]int, len(es)),
		val:    make([]float64, len(es)),
	}
	for n, e := range es {
		m.rowPtr[e.i+1]++
		m.colIdx[n] = e.j
		m.val[n] = e.v
	}
	for i := 0; i < t.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// ToDense materializes the builder as a dense matrix (tests, small cases).
func (t *Triplet) ToDense() *Dense {
	d := NewDense(t.rows, t.cols)
	for k, v := range t.entries {
		d.Add(k[0], k[1], v)
	}
	return d
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
