package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// randSPD returns a random symmetric positive definite matrix A = B*B^T + n*I.
func randSPD(rng *rand.Rand, n int) *Dense {
	b := randDense(rng, n, n)
	a := b.Mul(b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestDenseBasics(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("dims")
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g", m.At(1, 0))
	}
	m.Add(1, 0, 2)
	if m.At(1, 0) != 5 {
		t.Errorf("Add failed")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Errorf("Clone aliases original")
	}
	tr := m.T()
	if tr.At(0, 1) != 5 {
		t.Errorf("transpose wrong: %g", tr.At(0, 1))
	}
}

func TestDensePanics(t *testing.T) {
	m := NewDense(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.MulVec([]float64{1}) },
		func() { NewDense(3, 3).Mul(NewDense(2, 2)) },
		func() { NewDense(2, 3).Symmetrize() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 5, 5)
	p := a.Mul(Identity(5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("A*I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 4, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := NewDense(6, 1)
	for i, v := range x {
		xm.Set(i, 0, v)
	}
	y1 := a.MulVec(x)
	y2 := a.Mul(xm)
	for i := range y1 {
		if !almostEq(y1[i], y2.At(i, 0), 1e-12) {
			t.Fatalf("MulVec disagrees with Mul at %d", i)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {4, 3}})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("Symmetrize wrong: %v %v", m.At(0, 1), m.At(1, 0))
	}
	if !m.IsSymmetric(1e-15) {
		t.Errorf("should be symmetric")
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 20; n += 3 {
		a := randDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 5) // keep well-conditioned
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-9) {
				t.Fatalf("n=%d: x[%d]=%g want %g", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Errorf("expected singular error")
	}
}

func TestCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 12)
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	rec := l.Mul(l.T())
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if !almostEq(rec.At(i, j), a.At(i, j), 1e-9) {
				t.Fatalf("L*L^T != A at (%d,%d): %g vs %g", i, j, rec.At(i, j), a.At(i, j))
			}
		}
	}
	xTrue := make([]float64, 12)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("cholesky solve x[%d]=%g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err != ErrNotPositiveDefinite {
		t.Errorf("expected ErrNotPositiveDefinite, got %v", err)
	}
	if IsPositiveDefinite(a) {
		t.Errorf("indefinite matrix reported PD")
	}
}

func TestMinEigenEstimate(t *testing.T) {
	// diag(1, 5, 9): lambda_min = 1.
	a := NewDense(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 9)
	if got := MinEigenEstimate(a, 1e-6); !almostEq(got, 1, 1e-4) {
		t.Errorf("MinEigenEstimate = %g, want 1", got)
	}
	// Indefinite example from above: eigenvalues {3, -1}.
	b := NewDenseFrom([][]float64{{1, 2}, {2, 1}})
	if got := MinEigenEstimate(b, 1e-6); !almostEq(got, -1, 1e-4) {
		t.Errorf("MinEigenEstimate = %g, want -1", got)
	}
}

func TestCholeskyPropertySPD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randSPD(r, n)
		if !IsPositiveDefinite(a) {
			return false
		}
		// A random symmetric matrix with a strongly negative diagonal
		// entry must be rejected.
		a.Set(0, 0, -1)
		return !IsPositiveDefinite(a)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLeastSquares(t *testing.T) {
	// Fit y = 2 + 3x exactly.
	a := NewDenseFrom([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	b := []float64{2, 5, 8, 11}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-10) || !almostEq(x[1], 3, 1e-10) {
		t.Errorf("LeastSquares = %v, want [2 3]", x)
	}
}

func TestOrthonormalizeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 10, 4)
	q := OrthonormalizeColumns(a, nil, 1e-12)
	if q.Cols() != 4 {
		t.Fatalf("expected 4 columns, got %d", q.Cols())
	}
	qtq := q.T().Mul(q)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(qtq.At(i, j), want, 1e-10) {
				t.Fatalf("Q^T Q at (%d,%d) = %g", i, j, qtq.At(i, j))
			}
		}
	}
	// Deflation: a duplicated column must be dropped.
	col0 := NewDense(10, 1)
	for i := 0; i < 10; i++ {
		col0.Set(i, 0, a.At(i, 0))
	}
	dup := AppendColumns(a, col0)
	q2 := OrthonormalizeColumns(dup, nil, 1e-8)
	if q2.Cols() != 4 {
		t.Errorf("duplicate column not deflated: got %d columns", q2.Cols())
	}
	// Orthogonalization against an existing basis.
	q3 := OrthonormalizeColumns(randDense(rng, 10, 2), q, 1e-12)
	cross := q.T().Mul(q3)
	if cross.MaxAbs() > 1e-10 {
		t.Errorf("columns not orthogonal to basis: %g", cross.MaxAbs())
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %g", Dot(a, b))
	}
	if !almostEq(Norm2(a), math.Sqrt(14), 1e-14) {
		t.Errorf("Norm2 = %g", Norm2(a))
	}
	if NormInf([]float64{-5, 2}) != 5 {
		t.Errorf("NormInf")
	}
	y := CloneVec(b)
	Axpy(2, a, y)
	if y[2] != 12 {
		t.Errorf("Axpy: %v", y)
	}
	s := Sub(b, a)
	if s[0] != 3 || s[1] != 3 || s[2] != 3 {
		t.Errorf("Sub: %v", s)
	}
	ad := AddVec(a, a)
	if ad[2] != 6 {
		t.Errorf("AddVec: %v", ad)
	}
	ScaleVec(0.5, ad)
	if ad[2] != 3 {
		t.Errorf("ScaleVec: %v", ad)
	}
}
