package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// laplacian1D builds the SPD tridiagonal [2 -1; -1 2 ...] system, the
// discrete analogue of a resistor chain.
func laplacian1D(n int) *Triplet {
	t := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Add(i, i, 2)
		if i > 0 {
			t.Add(i, i-1, -1)
		}
		if i < n-1 {
			t.Add(i, i+1, -1)
		}
	}
	return t
}

func TestTripletToCSR(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(0, 0, 2) // duplicate accumulation
	tr.Add(2, 1, -4)
	tr.Add(1, 2, 0) // ignored
	m := tr.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 0) != 3 || d.At(2, 1) != -4 {
		t.Errorf("CSR contents wrong:\n%v", d)
	}
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTriplet(8, 8)
	for k := 0; k < 20; k++ {
		tr.Add(rng.Intn(8), rng.Intn(8), rng.NormFloat64())
	}
	m := tr.ToCSR()
	d := tr.ToDense()
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ys, yd := m.MulVec(x), d.MulVec(x)
	for i := range ys {
		if !almostEq(ys[i], yd[i], 1e-12) {
			t.Fatalf("sparse/dense mismatch at %d: %g vs %g", i, ys[i], yd[i])
		}
	}
}

func TestCSRMulDenseAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := NewTriplet(9, 7)
	for k := 0; k < 25; k++ {
		tr.Add(rng.Intn(9), rng.Intn(7), rng.NormFloat64())
	}
	b := NewDense(7, 4)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	ys, yd := tr.ToCSR().MulDense(b), tr.ToDense().Mul(b)
	if ys.Rows() != 9 || ys.Cols() != 4 {
		t.Fatalf("product is %dx%d, want 9x4", ys.Rows(), ys.Cols())
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(ys.At(i, j), yd.At(i, j), 1e-12) {
				t.Fatalf("sparse/dense mismatch at (%d,%d): %g vs %g", i, j, ys.At(i, j), yd.At(i, j))
			}
		}
	}
}

// solveJacobiCG runs PCG with the Jacobi preconditioner, the sparse IR
// path's solver.
func solveJacobiCG(m *CSR, b []float64, tol float64) ([]float64, IterResult, error) {
	pre, err := JacobiPrecond(m)
	if err != nil {
		return nil, IterResult{}, err
	}
	return PCG(CSROp{M: m}, b, PCGOptions{Tol: tol, Precond: pre})
}

func TestSolveCG(t *testing.T) {
	n := 50
	m := laplacian1D(n).ToCSR()
	rng := rand.New(rand.NewSource(8))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := m.MulVec(xTrue)
	x, res, err := solveJacobiCG(m, b, 1e-12)
	if err != nil || !res.Converged {
		t.Fatalf("CG: %+v, %v", res, err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-7) {
			t.Fatalf("CG x[%d]=%g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m := laplacian1D(5).ToCSR()
	x, _, err := solveJacobiCG(m, make([]float64, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if NormInf(x) != 0 {
		t.Errorf("CG of zero rhs should be zero")
	}
}

func TestCGRejectsNonSPDDiag(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, -1)
	tr.Add(1, 1, 1)
	if _, err := JacobiPrecond(tr.ToCSR()); err == nil {
		t.Errorf("CG should reject negative diagonal")
	}
}

func TestCGMatchesDenseSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		// Random SPD: Laplacian + random positive diagonal loading.
		tr := laplacian1D(n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, rng.Float64()+0.1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs, res, err := solveJacobiCG(tr.ToCSR(), b, 1e-13)
		if err != nil || !res.Converged {
			return false
		}
		xd, err := SolveDense(tr.ToDense(), b)
		if err != nil {
			return false
		}
		for i := range xs {
			if !almostEq(xs[i], xd[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComplexSolve(t *testing.T) {
	// (1+1i)x + 2y = 5+3i ; 3x + (4-2i)y = 6
	a := NewCDense(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, complex(4, -2))
	b := []complex128{complex(5, 3), 6}
	x, err := SolveComplex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	for i := range r {
		d := r[i] - b[i]
		if real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
			t.Fatalf("residual %v at %d", d, i)
		}
	}
}

func TestComplexSolveSingular(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveComplex(a, []complex128{1, 1}); err == nil {
		t.Errorf("expected singular error")
	}
}
