package matrix

import "fmt"

// CDense is a dense, row-major complex matrix, used by AC analysis
// (internal/sim) and frequency-domain extraction (internal/fasthenry).
type CDense struct {
	rows, cols int
	data       []complex128
}

// NewCDense returns an r x c zero complex matrix.
func NewCDense(r, c int) *CDense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &CDense{rows: r, cols: c, data: make([]complex128, r*c)}
}

// Rows returns the number of rows.
func (m *CDense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CDense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *CDense) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *CDense) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to element (i, j).
func (m *CDense) Add(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *CDense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *CDense) Clone() *CDense {
	c := NewCDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns m*x.
func (m *CDense) MulVec(x []complex128) []complex128 {
	if m.cols != len(x) {
		panic("matrix: CDense MulVec dimension mismatch")
	}
	y := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		var s complex128
		for j, v := range mi {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// SolveComplex solves a*x = b with complex LU and partial pivoting
// (FactorComplexLU, then one SolveTo). a is not modified.
func SolveComplex(a *CDense, b []complex128) ([]complex128, error) {
	if len(b) != a.rows {
		return nil, fmt.Errorf("matrix: complex solve rhs length %d, want %d", len(b), a.rows)
	}
	lu, err := FactorComplexLU(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}
