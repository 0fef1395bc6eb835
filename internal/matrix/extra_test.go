package matrix

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

func TestDenseInPlaceOps(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{10, 20}, {30, 40}})
	a.AddMat(b)
	if a.At(1, 1) != 44 {
		t.Errorf("AddMat: %g", a.At(1, 1))
	}
	a.AddScaled(-1, b)
	if a.At(1, 1) != 4 {
		t.Errorf("AddScaled: %g", a.At(1, 1))
	}
	a.Scale(2)
	if a.At(0, 0) != 2 {
		t.Errorf("Scale: %g", a.At(0, 0))
	}
	s := NewDenseFrom([][]float64{{1, 2}, {3, 4}}).String()
	if !strings.Contains(s, "4") || !strings.Contains(s, "\n") {
		t.Errorf("String output: %q", s)
	}
	if NewDenseFrom(nil).Rows() != 0 {
		t.Errorf("empty NewDenseFrom")
	}
}

func TestDenseRaggedAndNegative(t *testing.T) {
	for _, f := range []func(){
		func() { NewDenseFrom([][]float64{{1, 2}, {3}}) },
		func() { NewDense(-1, 2) },
		func() { NewDense(2, 2).Row(5) },
		func() { NewDense(2, 2).AddMat(NewDense(3, 3)) },
		func() { NewDense(2, 2).AddScaled(1, NewDense(3, 3)) },
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

func TestIsSymmetricEdge(t *testing.T) {
	if !NewDense(3, 3).IsSymmetric(0) {
		t.Errorf("zero matrix should be symmetric")
	}
	if NewDense(2, 3).IsSymmetric(1) {
		t.Errorf("non-square reported symmetric")
	}
	m := NewDenseFrom([][]float64{{1, 2}, {2.5, 1}})
	if m.IsSymmetric(1e-12) {
		t.Errorf("asymmetric matrix reported symmetric")
	}
	if !m.IsSymmetric(1) {
		t.Errorf("loose tolerance should accept")
	}
}

func TestCholeskySolveMat(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randSPD(rng, 6)
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ch.SolveMat(Identity(6))
	if err != nil {
		t.Fatal(err)
	}
	p := a.Mul(inv)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(p.At(i, j)-want) > 1e-9 {
				t.Fatalf("SolveMat inverse wrong at (%d,%d)", i, j)
			}
		}
	}
	if _, err := ch.SolveMat(NewDense(3, 1)); err == nil {
		t.Errorf("dimension mismatch accepted")
	}
	if _, err := ch.Solve(make([]float64, 3)); err == nil {
		t.Errorf("bad rhs length accepted")
	}
}

func TestLUSolveMatErrors(t *testing.T) {
	a := NewDenseFrom([][]float64{{2, 0}, {0, 2}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 3)); err == nil {
		t.Errorf("length mismatch accepted")
	}
	if _, err := FactorLU(NewDense(2, 3)); err == nil {
		t.Errorf("non-square LU accepted")
	}
	if _, err := FactorCholesky(NewDense(2, 3)); err == nil {
		t.Errorf("non-square Cholesky accepted")
	}
}

func TestCDenseOps(t *testing.T) {
	m := NewCDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Errorf("dims")
	}
	m.Add(1, 2, complex(1, 1))
	m.Add(1, 2, complex(1, -2))
	if m.At(1, 2) != complex(2, -1) {
		t.Errorf("Add: %v", m.At(1, 2))
	}
	c := m.Clone()
	c.Set(1, 2, 0)
	if m.At(1, 2) == 0 {
		t.Errorf("Clone aliases its source")
	}
	for _, f := range []func(){
		func() { m.At(5, 0) },
		func() { NewCDense(-1, 1) },
		func() { m.MulVec(make([]complex128, 2)) },
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

func TestComplexLUReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 8
	a := NewCDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		a.Add(i, i, 10)
	}
	lu, err := FactorComplexLU(a)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := a.MulVec(x)
		got, err := lu.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
	// Reused factorization must agree with one-shot SolveComplex.
	b := make([]complex128, n)
	b[0] = 1
	x1, _ := lu.Solve(b)
	x2, err := SolveComplex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if cmplx.Abs(x1[i]-x2[i]) > 1e-10 {
			t.Fatalf("CLU and SolveComplex disagree at %d", i)
		}
	}
	// SolveTo runs the same arithmetic into caller storage: bit-identical.
	x3 := make([]complex128, n)
	if err := lu.SolveTo(x3, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x3[i] != x1[i] {
			t.Fatalf("SolveTo x[%d] = %v, Solve %v", i, x3[i], x1[i])
		}
	}
	// Errors.
	if _, err := lu.Solve(make([]complex128, 3)); err == nil {
		t.Errorf("bad rhs length accepted")
	}
	if err := lu.SolveTo(make([]complex128, 3), b); err == nil {
		t.Errorf("bad dst length accepted")
	}
	if _, err := FactorComplexLU(NewCDense(2, 3)); err == nil {
		t.Errorf("non-square accepted")
	}
	sing := NewCDense(2, 2)
	sing.Set(0, 0, 1)
	sing.Set(0, 1, 2)
	sing.Set(1, 0, 2)
	sing.Set(1, 1, 4)
	if _, err := FactorComplexLU(sing); err == nil {
		t.Errorf("singular accepted")
	}
	// The in-place factor runs the same elimination on a's own storage.
	inPlace, err := FactorComplexLUInPlace(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := inPlace.SolveTo(x3, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x3[i] != x1[i] {
			t.Fatalf("in-place factor x[%d] = %v, FactorComplexLU %v", i, x3[i], x1[i])
		}
	}
	if _, err := FactorComplexLUInPlace(sing); err == nil {
		t.Errorf("singular accepted in place")
	}
	nan := NewCDense(2, 2)
	nan.Set(0, 0, 1)
	nan.Set(1, 1, complex(math.NaN(), 0))
	if _, err := FactorComplexLUInPlace(nan); err == nil || nan.At(0, 0) != 1 {
		t.Errorf("non-finite entry: err %v, a(0,0) = %v, want an error and a untouched", err, nan.At(0, 0))
	}
}

// TestComplexLURejectsNonFinite: a NaN or infinite entry, in either
// part, is an error naming the first such entry in row-major order
// instead of an all-NaN or finite-looking solution; [[Inf,1],[1,1]]
// used to "solve" to [0, 1].
func TestComplexLURejectsNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		a    [4]complex128 // row-major 2x2
		want string
	}{
		{"NaN", [4]complex128{1, complex(0, nan), complex(inf, 0), 1}, "(0,1)"},
		{"+Inf", [4]complex128{complex(inf, 0), 1, 1, 1}, "(0,0)"},
		{"-Inf", [4]complex128{1, 1, 1, complex(2, -inf)}, "(1,1)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewCDense(2, 2)
			for k, v := range c.a {
				a.Set(k/2, k%2, v)
			}
			_, err := FactorComplexLU(a)
			if err == nil || !strings.Contains(err.Error(), "non-finite entry "+c.want) {
				t.Errorf("err = %v, want a non-finite error naming %s", err, c.want)
			}
			if x, err := SolveComplex(a, []complex128{1, 1}); err == nil {
				t.Errorf("SolveComplex solved to %v with no error", x)
			}
		})
	}
}

func TestTripletBounds(t *testing.T) {
	tr := NewTriplet(2, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	tr.Add(5, 0, 1)
}

func TestCSRDiagAndDims(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 2)
	tr.Add(2, 2, 5)
	tr.Add(1, 0, -1)
	m := tr.ToCSR()
	if m.Rows() != 3 || m.Cols() != 3 {
		t.Errorf("dims")
	}
	d := m.Diag()
	if d[0] != 2 || d[1] != 0 || d[2] != 5 {
		t.Errorf("Diag = %v", d)
	}
	if tr.Rows() != 3 || tr.Cols() != 3 || tr.NNZ() != 3 {
		t.Errorf("triplet meta wrong")
	}
}

func TestSolversRejectBadShapes(t *testing.T) {
	tr := NewTriplet(2, 3)
	if _, err := JacobiPrecond(tr.ToCSR()); err == nil {
		t.Errorf("Jacobi preconditioner on non-square accepted")
	}
	sq := NewTriplet(2, 2)
	sq.Add(0, 0, 1)
	sq.Add(1, 1, 1)
	if _, _, err := PCG(CSROp{M: sq.ToCSR()}, make([]float64, 3), PCGOptions{}); err == nil {
		t.Errorf("CG rhs mismatch accepted")
	}
	if _, _, err := PCG(CSROp{M: sq.ToCSR()}, make([]float64, 2), PCGOptions{X0: make([]float64, 3)}); err == nil {
		t.Errorf("CG x0 mismatch accepted")
	}
}
