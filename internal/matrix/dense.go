// Package matrix implements the dense and sparse linear algebra used by
// the inductance extraction, simulation, sparsification and model-order
// reduction packages.
//
// Go's standard library has no linear algebra, so this package is one of
// the substrates this repository builds from scratch: dense LU with
// partial pivoting, Cholesky factorization, modified Gram-Schmidt
// orthonormalization (for PRIMA's block Arnoldi), a complex LU solver
// (for AC analysis and FastHenry-style extraction), a compressed sparse
// row format, and the Krylov solvers: one preconditioned CG (Jacobi or
// multigrid) for the SPD power-grid systems and one restarted GMRES for
// the complex R + jωL extraction systems.
//
// Matrices are row-major with float64 entries. Dimensions are checked
// and violations panic: dimension mismatch is a programming error, not a
// runtime condition.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds a matrix from a slice of rows. All rows must have
// equal length. The data is copied.
func NewDenseFrom(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to element (i, j). This is the MNA "stamp" primitive.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("matrix: row index out of range")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Zero sets every element to zero, retaining dimensions.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMat accumulates a into m in place (m += a) and returns m.
func (m *Dense) AddMat(a *Dense) *Dense {
	if m.rows != a.rows || m.cols != a.cols {
		panic("matrix: AddMat dimension mismatch")
	}
	for i := range m.data {
		m.data[i] += a.data[i]
	}
	return m
}

// AddScaled accumulates s*a into m in place (m += s*a) and returns m.
func (m *Dense) AddScaled(s float64, a *Dense) *Dense {
	if m.rows != a.rows || m.cols != a.cols {
		panic("matrix: AddScaled dimension mismatch")
	}
	for i := range m.data {
		m.data[i] += s * a.data[i]
	}
	return m
}

// Mul returns the matrix product m*b. Products large enough to repay
// the tiling overhead go through the blocked, parallel kernel; small
// ones use the reference loop. Both accumulate each output entry in
// increasing-k order, so results agree bit-for-bit on finite data.
func (m *Dense) Mul(b *Dense) *Dense { return m.mulWorkers(b, 0) }

// mulWorkers is Mul with an explicit worker count for the blocked
// kernel (0 = process default).
func (m *Dense) mulWorkers(b *Dense, workers int) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d * %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	if m.rows*m.cols*b.cols >= mulBlockedMin && b.cols >= 4 {
		mulBlocked(m, b, out, workers)
		return out
	}
	m.mulInto(b, out)
	return out
}

// MulUnblocked returns m*b via the serial reference loop regardless of
// size — the ground truth for the kernel-equivalence tests.
func (m *Dense) MulUnblocked(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d * %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	m.mulInto(b, out)
	return out
}

func (m *Dense) mulInto(b, out *Dense) {
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*b.cols : (i+1)*b.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
}

// MulTrans returns m^T * b without materializing the transpose. This is
// the projection product of PRIMA (V^T G V etc.); both operands are
// packed into contiguous tiles so the blocked kernel applies, parallel
// over rows of the result.
func (m *Dense) MulTrans(b *Dense) *Dense { return m.mulTransWorkers(b, 0) }

// mulTransWorkers is MulTrans with an explicit worker count for the
// blocked kernel (0 = process default).
func (m *Dense) mulTransWorkers(b *Dense, workers int) *Dense {
	if m.rows != b.rows {
		panic(fmt.Sprintf("matrix: MulTrans dimension mismatch %dx%d ^T * %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.cols, b.cols)
	if m.rows*m.cols*b.cols >= mulBlockedMin {
		ParallelRangeWorkers(workers, m.cols, 8, func(lo, hi int) {
			mulTransRows(m, b, out, lo, hi)
		})
		return out
	}
	for i := 0; i < m.cols; i++ {
		for j := 0; j < b.cols; j++ {
			s := 0.0
			for k := 0; k < m.rows; k++ {
				s += m.data[k*m.cols+i] * b.data[k*b.cols+j]
			}
			out.data[i*b.cols+j] = s
		}
	}
	return out
}

// MulVec returns m*x as a new slice.
func (m *Dense) MulVec(x []float64) []float64 {
	return m.MulVecTo(make([]float64, m.rows), x)
}

// MulVecTo computes m*x into dst (which must have length m.rows and not
// alias x) and returns dst. Rows are independent dot products, split
// across workers for large matrices; each row is accumulated exactly as
// in the serial loop. This is the allocation-free matvec used by the
// transient simulator's per-step history product. The worker count is
// the process default; MulVecToWorkers pins it per run.
func (m *Dense) MulVecTo(dst, x []float64) []float64 {
	return m.MulVecToWorkers(dst, x, 0)
}

// MulVecToWorkers is MulVecTo with an explicit worker count. workers <= 0
// falls back to the process default (Workers).
func (m *Dense) MulVecToWorkers(dst, x []float64, workers int) []float64 {
	if m.cols != len(x) {
		panic("matrix: MulVec dimension mismatch")
	}
	if len(dst) != m.rows {
		panic("matrix: MulVecTo destination length mismatch")
	}
	minChunk := 1
	if m.cols > 0 {
		minChunk = 1 + (1<<14)/m.cols
	}
	ParallelRangeWorkers(workers, m.rows, minChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mi := m.data[i*m.cols : (i+1)*m.cols]
			s := 0.0
			for j, v := range mi {
				s += v * x[j]
			}
			dst[i] = s
		}
	})
	return dst
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Symmetrize replaces m with (m + m^T)/2. m must be square.
func (m *Dense) Symmetrize() *Dense {
	if m.rows != m.cols {
		panic("matrix: Symmetrize needs a square matrix")
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.data[i*n+j] + m.data[j*n+i]) / 2
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
	return m
}

// IsSymmetric reports whether |m_ij - m_ji| <= tol * max|m| for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	scale := m.MaxAbs()
	if scale == 0 {
		return true
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(m.data[i*n+j]-m.data[j*n+i]) > tol*scale {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(sum m_ij^2).
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// NonZeros counts elements with |v| > tol.
func (m *Dense) NonZeros(tol float64) int {
	n := 0
	for _, v := range m.data {
		if math.Abs(v) > tol {
			n++
		}
	}
	return n
}

// Submatrix returns the block m[r0:r1, c0:c1] as a copy.
func (m *Dense) Submatrix(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic("matrix: Submatrix bounds out of range")
	}
	s := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return s
}

// SetSubmatrix copies a into m starting at (r0, c0).
func (m *Dense) SetSubmatrix(r0, c0 int, a *Dense) {
	if r0+a.rows > m.rows || c0+a.cols > m.cols || r0 < 0 || c0 < 0 {
		panic("matrix: SetSubmatrix out of range")
	}
	for i := 0; i < a.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+a.cols], a.Row(i))
	}
}

// String renders the matrix for debugging, with aligned %.4g columns.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%12.4g", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
