package matrix

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randomDiagDominantC builds a random complex diagonally dominant
// matrix (guaranteed nonsingular, GMRES-friendly but dense and
// nonsymmetric).
func randomDiagDominantC(n int, rng *rand.Rand) *CDense {
	m := NewCDense(n, n)
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			row += cmplx.Abs(v)
		}
		m.Set(i, i, complex(row+1+rng.Float64(), rng.NormFloat64()))
	}
	return m
}

func randVecC(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func residualC(m *CDense, x, b []complex128) float64 {
	n := m.Rows()
	r := make([]complex128, n)
	CDenseOp{m}.ApplyTo(r, x)
	var num, den float64
	for i := 0; i < n; i++ {
		num += real((r[i] - b[i]) * cmplx.Conj(r[i]-b[i]))
		den += real(b[i] * cmplx.Conj(b[i]))
	}
	return math.Sqrt(num / den)
}

func TestGMRESMatchesDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 40} {
		m := randomDiagDominantC(n, rng)
		b := randVecC(n, rng)
		x, res, err := GMRES(CDenseOp{m}, b, GMRESOptions{Tol: 1e-12}, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: not converged (residual %g)", n, res.Residual)
		}
		if r := residualC(m, x, b); r > 1e-10 {
			t.Errorf("n=%d: residual %g", n, r)
		}
		want, err := SolveComplex(m, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-want[i]) > 1e-8*(1+cmplx.Abs(want[i])) {
				t.Errorf("n=%d: x[%d] = %v, direct %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestGMRESRestartedConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 60
	m := randomDiagDominantC(n, rng)
	b := randVecC(n, rng)
	// Restart far below n forces multiple cycles.
	x, res, err := GMRES(CDenseOp{m}, b, GMRESOptions{Restart: 5, Tol: 1e-11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Restarts == 0 {
		t.Fatalf("expected converged multi-restart solve, got %+v", res)
	}
	if r := residualC(m, x, b); r > 1e-9 {
		t.Errorf("residual %g after restarts", r)
	}
}

func TestGMRESPreconditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 50
	m := randomDiagDominantC(n, rng)
	b := randVecC(n, rng)
	_, plain, err := GMRES(CDenseOp{m}, b, GMRESOptions{Tol: 1e-10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Jacobi preconditioner: with strong diagonal dominance it should
	// not increase the iteration count.
	diag := make([]complex128, n)
	for i := 0; i < n; i++ {
		diag[i] = m.At(i, i)
	}
	x, pre, err := GMRES(CDenseOp{m}, b, GMRESOptions{
		Tol: 1e-10,
		Precond: func(dst, src []complex128) {
			for i := range dst {
				dst[i] = src[i] / diag[i]
			}
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatalf("preconditioned solve did not converge: %+v", pre)
	}
	if pre.Iters > plain.Iters {
		t.Errorf("Jacobi preconditioning increased iterations: %d > %d", pre.Iters, plain.Iters)
	}
	if r := residualC(m, x, b); r > 1e-8 {
		t.Errorf("residual %g", r)
	}
}

func TestGMRESWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	m := randomDiagDominantC(n, rng)
	b := randVecC(n, rng)
	x, cold, err := GMRES(CDenseOp{m}, b, GMRESOptions{Tol: 1e-10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact answer: converges immediately.
	_, warm, err := GMRES(CDenseOp{m}, b, GMRESOptions{Tol: 1e-8, X0: x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged || warm.Iters > 1 {
		t.Errorf("warm start from solution took %d iterations", warm.Iters)
	}
	// Warm start from a perturbed answer: strictly easier than cold.
	x2 := append([]complex128(nil), x...)
	for i := range x2 {
		x2[i] += complex(1e-4*rng.NormFloat64(), 1e-4*rng.NormFloat64())
	}
	_, warm2, err := GMRES(CDenseOp{m}, b, GMRESOptions{Tol: 1e-10, X0: x2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm2.Converged || warm2.Iters >= cold.Iters {
		t.Errorf("perturbed warm start took %d iterations, cold %d", warm2.Iters, cold.Iters)
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomDiagDominantC(6, rng)
	x, res, err := GMRES(CDenseOp{m}, make([]complex128, 6), GMRESOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iters != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestGMRESBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randomDiagDominantC(4, rng)
	if _, _, err := GMRES(CDenseOp{m}, make([]complex128, 3), GMRESOptions{}, nil); err == nil {
		t.Error("rhs length mismatch not rejected")
	}
	if _, _, err := GMRES(CDenseOp{m}, make([]complex128, 4), GMRESOptions{X0: make([]complex128, 2)}, nil); err == nil {
		t.Error("x0 length mismatch not rejected")
	}
}

func TestGMRESReportsStall(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 30
	m := randomDiagDominantC(n, rng)
	b := randVecC(n, rng)
	_, res, err := GMRES(CDenseOp{m}, b, GMRESOptions{Restart: 2, Tol: 1e-14, MaxIters: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("3 iterations cannot hit 1e-14 on a random 30x30 system")
	}
	if res.Residual <= 0 || res.Iters != 3 {
		t.Errorf("stall result %+v", res)
	}
}

// spdSystem builds A = B^T B + I (SPD) as a dense operator.
func spdSystem(n int, rng *rand.Rand) *Dense {
	bm := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bm.Set(i, j, rng.NormFloat64())
		}
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += bm.At(k, i) * bm.At(k, j)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

func TestCGSolvesSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 35
	a := spdSystem(n, rng)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	DenseOp{a}.ApplyTo(b, want)
	x, res, err := PCG(DenseOp{a}, b, PCGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	// Warm start from the answer converges immediately.
	_, warm, err := PCG(DenseOp{a}, b, PCGOptions{Tol: 1e-10, X0: x})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iters > 1 {
		t.Errorf("warm CG took %d iterations", warm.Iters)
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	b := []float64{0.3, 1}
	if _, _, err := PCG(DenseOp{a}, b, PCGOptions{}); err == nil {
		t.Error("indefinite matrix not reported")
	}
}

func TestOperatorAdapters(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 9
	d := NewDense(n, n)
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			d.Set(i, j, v)
			tr.Add(i, j, v)
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	d.MulVecTo(want, x)
	got := make([]float64, n)
	DenseOp{d}.ApplyTo(got, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("DenseOp[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	csc := tr.ToCSC()
	CSCOp{csc}.ApplyTo(got, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CSCOp[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if (DenseOp{d}).Dim() != n || (CSCOp{csc}).Dim() != n {
		t.Fatal("Dim mismatch")
	}
}
