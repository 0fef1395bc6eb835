package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// randSparse builds a random sparse diagonally-dominant n x n system:
// structurally symmetric off-diagonal pattern (like MNA matrices) with
// unsymmetric values.
func randSparse(rng *rand.Rand, n, extra int) *Triplet {
	t := NewTriplet(n, n)
	for j := 0; j < n; j++ {
		t.Add(j, j, 4+rng.Float64())
	}
	for e := 0; e < extra; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		t.Add(i, j, rng.NormFloat64())
		t.Add(j, i, rng.NormFloat64())
	}
	return t
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if m := math.Abs(a[i] - b[i]); m > d {
			d = m
		}
	}
	return d
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 60, 150} {
		trip := randSparse(rng, n, 3*n)
		a := trip.ToCSC()
		f, err := FactorSparseLU(a)
		if err != nil {
			t.Fatalf("n=%d: sparse LU: %v", n, err)
		}
		lu, err := FactorLU(trip.ToDense())
		if err != nil {
			t.Fatalf("n=%d: dense LU: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs, err := f.Solve(b)
		if err != nil {
			t.Fatalf("n=%d: sparse solve: %v", n, err)
		}
		xd, err := lu.Solve(b)
		if err != nil {
			t.Fatalf("n=%d: dense solve: %v", n, err)
		}
		if d := maxDiff(xs, xd); d > 1e-9 {
			t.Errorf("n=%d: sparse vs dense solution differ by %g", n, d)
		}
		// SolveTo must agree exactly with Solve.
		dst := make([]float64, n)
		scratch := make([]float64, n)
		if err := f.SolveTo(dst, b, scratch); err != nil {
			t.Fatalf("n=%d: SolveTo: %v", n, err)
		}
		for i := range dst {
			if dst[i] != xs[i] {
				t.Fatalf("n=%d: SolveTo differs from Solve at %d", n, i)
			}
		}
	}
}

func TestSparseLUResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 120
	trip := randSparse(rng, n, 4*n)
	a := trip.ToCSC()
	f, err := FactorSparseLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, n)
	a.MulVecTo(r, x)
	for i := range r {
		r[i] -= b[i]
	}
	for i, v := range r {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("residual[%d] = %g", i, v)
		}
	}
}

func TestSparseLURefactorMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 80
	trip := randSparse(rng, n, 3*n)
	a := trip.ToCSC()
	f, err := FactorSparseLU(a)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb values (same pattern), refactor, compare against a fresh
	// factorization forced to the same column order.
	cp, ri := a.Pattern()
	val := make([]float64, a.NNZ())
	a.Each(func(i, j int, v float64) {})
	for j := 0; j < n; j++ {
		for p := cp[j]; p < cp[j+1]; p++ {
			base := 0.5 + rng.Float64()
			if ri[p] == j {
				base += 4
			}
			val[p] = base
		}
	}
	a2 := CSCFromParts(n, n, cp, ri, val)
	g := f.NewNumeric()
	if err := g.Refactor(a2); err != nil {
		t.Fatalf("refactor: %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, err := g.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := FactorLU(CSCToDense(a2))
	if err != nil {
		t.Fatal(err)
	}
	x2, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(x1, x2); d > 1e-9 {
		t.Errorf("refactored solution off by %g", d)
	}
	// Two refactorizations of the same values are bit-identical (the
	// numeric sweep is a fixed replay), and a refactor of the original
	// values solves as accurately as the original factorization.
	h1, h2 := f.NewNumeric(), f.NewNumeric()
	if err := h1.Refactor(a); err != nil {
		t.Fatalf("refactor original: %v", err)
	}
	if err := h2.Refactor(a); err != nil {
		t.Fatalf("refactor original: %v", err)
	}
	for p := range h1.lx {
		if h1.lx[p] != h2.lx[p] {
			t.Fatalf("lx[%d] differs between identical refactors", p)
		}
	}
	for p := range h1.ux {
		if h1.ux[p] != h2.ux[p] {
			t.Fatalf("ux[%d] differs between identical refactors", p)
		}
	}
	x3, err := h1.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x4, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(x3, x4); d > 1e-9 {
		t.Errorf("refactor-of-original solution off by %g", d)
	}
}

// TestSparseLURefactorRejectsOtherPattern moves a 4×4 matrix's (0,1)
// and (1,0) entries to (0,3) and (3,0): the nonzero count stays, the
// pattern does not, and Refactor must refuse it rather than solve with
// the analyzed structure (x₀ = 0.25 where the true solution has 0). A
// copy of the analyzed pattern in fresh slices still refactors.
func TestSparseLURefactorRejectsOtherPattern(t *testing.T) {
	build := func(i, j int) *CSC {
		tr := NewTriplet(4, 4)
		for k := 0; k < 4; k++ {
			tr.Add(k, k, 2)
		}
		tr.Add(i, j, 1)
		tr.Add(j, i, 1)
		return tr.ToCSC()
	}
	f, err := FactorSparseLU(build(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	moved := build(0, 3)
	if moved.NNZ() != 6 {
		t.Fatalf("moved matrix has %d nonzeros, want 6", moved.NNZ())
	}
	if err := f.NewNumeric().Refactor(moved); err == nil {
		t.Fatal("Refactor accepted a different pattern with the same nonzero count")
	}
	fresh, err := FactorSparseLU(moved)
	if err != nil {
		t.Fatal(err)
	}
	x, err := fresh.Solve([]float64{0, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[3] != 0 {
		t.Errorf("fresh solve x = %v, want x0 = x3 = 0", x)
	}
	g := f.NewNumeric()
	if err := g.Refactor(build(0, 1)); err != nil {
		t.Fatalf("Refactor of the analyzed pattern in fresh slices: %v", err)
	}
}

func TestSparseLURefactorParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	trip := randSparse(rng, n, 2*n)
	a := trip.ToCSC()
	f1, err := FactorSparseLUWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := FactorSparseLUWorkers(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	g1 := f1.NewNumeric()
	if err := g1.Refactor(a); err != nil {
		t.Fatal(err)
	}
	g4 := f4.NewNumeric()
	if err := g4.Refactor(a); err != nil {
		t.Fatal(err)
	}
	for p := range g1.lx {
		if g1.lx[p] != g4.lx[p] {
			t.Fatalf("parallel refactor lx[%d] differs from serial", p)
		}
	}
	for p := range g1.ux {
		if g1.ux[p] != g4.ux[p] {
			t.Fatalf("parallel refactor ux[%d] differs from serial", p)
		}
	}
}

func TestSparseLUSingular(t *testing.T) {
	trip := NewTriplet(3, 3)
	trip.Add(0, 0, 1)
	trip.Add(0, 1, 2)
	trip.Add(1, 0, 2)
	trip.Add(1, 1, 4) // row 1 = 2*row 0 over the same pattern
	trip.Add(2, 2, 1)
	if _, err := FactorSparseLU(trip.ToCSC()); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestSparseCLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 25, 90} {
		cp := make([]int, n+1)
		var ri []int
		var val []complex128
		// Tridiagonal-ish complex system, built column-major ascending.
		for j := 0; j < n; j++ {
			for _, i := range []int{j - 1, j, j + 1} {
				if i < 0 || i >= n {
					continue
				}
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				if i == j {
					v += 6
				}
				ri = append(ri, i)
				val = append(val, v)
			}
			cp[j+1] = len(ri)
		}
		a := CSCFromParts(n, n, cp, ri, val)
		f, err := FactorSparseCLU(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		d := NewCDense(n, n)
		a.Each(func(i, j int, v complex128) { d.Set(i, j, v) })
		clu, err := FactorComplexLU(d)
		if err != nil {
			t.Fatalf("n=%d: dense complex LU: %v", n, err)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		xs, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		xd, err := clu.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if re, im := real(xs[i]-xd[i]), imag(xs[i]-xd[i]); math.Abs(re) > 1e-9 || math.Abs(im) > 1e-9 {
				t.Fatalf("n=%d: x[%d] sparse %v dense %v", n, i, xs[i], xd[i])
			}
		}
	}
}

// laplacianGrid builds the SPD 2D grid Laplacian plus a ground leak,
// the shape of the power-grid DC systems.
func laplacianGrid(nx, ny float64) *Triplet {
	w, h := int(nx), int(ny)
	n := w * h
	t := NewTriplet(n, n)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := id(x, y)
			t.Add(i, i, 1e-6)
			if x+1 < w {
				j := id(x+1, y)
				t.Add(i, i, 1)
				t.Add(j, j, 1)
				t.Add(i, j, -1)
				t.Add(j, i, -1)
			}
			if y+1 < h {
				j := id(x, y+1)
				t.Add(i, i, 1)
				t.Add(j, j, 1)
				t.Add(i, j, -1)
				t.Add(j, i, -1)
			}
		}
	}
	return t
}

func TestSparseCholeskyMatchesDense(t *testing.T) {
	trip := laplacianGrid(7, 6)
	a := trip.ToCSC()
	c, err := FactorSparseCholesky(a)
	if err != nil {
		t.Fatalf("sparse Cholesky: %v", err)
	}
	dc, err := FactorCholesky(trip.ToDense())
	if err != nil {
		t.Fatalf("dense Cholesky: %v", err)
	}
	n := a.Rows()
	rng := rand.New(rand.NewSource(6))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xs, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := dc.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// The tiny ground leak makes the system stiff (solution components
	// ~1e6), so compare relative to the solution magnitude.
	scale := 0.0
	for _, v := range xd {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	if d := maxDiff(xs, xd); d > 1e-9*scale {
		t.Errorf("sparse vs dense Cholesky solutions differ by %g (scale %g)", d, scale)
	}
	if c.N() != n || c.FactorNNZ() < n {
		t.Errorf("factor shape: N=%d nnz=%d", c.N(), c.FactorNNZ())
	}
}

func TestSparseCholeskyIndefinite(t *testing.T) {
	trip := NewTriplet(2, 2)
	trip.Add(0, 0, 1)
	trip.Add(0, 1, 3)
	trip.Add(1, 0, 3)
	trip.Add(1, 1, 1)
	if _, err := FactorSparseCholesky(trip.ToCSC()); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	if IsSparsePositiveDefinite(trip.ToCSC()) {
		t.Fatal("indefinite matrix reported SPD")
	}
	spd := laplacianGrid(4, 4)
	if !IsSparsePositiveDefinite(spd.ToCSC()) {
		t.Fatal("SPD Laplacian reported not SPD")
	}
}

func TestMinDegreeOrderingValid(t *testing.T) {
	trip := laplacianGrid(9, 9)
	a := trip.ToCSC()
	cp, ri := a.Pattern()
	q := MinDegreeOrdering(a.Rows(), cp, ri)
	seen := make([]bool, a.Rows())
	for _, v := range q {
		if v < 0 || v >= a.Rows() || seen[v] {
			t.Fatalf("ordering is not a permutation: %v", q)
		}
		seen[v] = true
	}
	// Fill reduction: min-degree must beat natural order on a grid.
	fMD, err := FactorSparseOrdered(a, q)
	if err != nil {
		t.Fatal(err)
	}
	nat := make([]int, a.Rows())
	for i := range nat {
		nat[i] = i
	}
	fNat, err := FactorSparseOrdered(a, nat)
	if err != nil {
		t.Fatal(err)
	}
	if fMD.FactorNNZ() > fNat.FactorNNZ() {
		t.Errorf("min-degree fill %d worse than natural order %d", fMD.FactorNNZ(), fNat.FactorNNZ())
	}
}

func TestCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trip := randSparse(rng, 30, 60)
	a := trip.ToCSC()
	d1 := trip.ToDense()
	d2 := CSCToDense(a)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if d1.At(i, j) != d2.At(i, j) {
				t.Fatalf("CSC round trip differs at (%d,%d)", i, j)
			}
		}
	}
	if a.NNZ() != trip.NNZ() {
		t.Fatalf("nnz %d vs triplet %d", a.NNZ(), trip.NNZ())
	}
	// MulVecTo vs dense.
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 30)
	a.MulVecTo(y1, x)
	y2 := d1.MulVec(x)
	if d := maxDiff(y1, y2); d > 1e-12 {
		t.Fatalf("CSC MulVecTo differs from dense by %g", d)
	}
}

func TestTripletAddScaled(t *testing.T) {
	a := NewTriplet(3, 3)
	a.Add(0, 0, 1)
	a.Add(1, 2, 2)
	b := NewTriplet(3, 3)
	b.Add(0, 0, 10)
	b.Add(2, 1, 5)
	a.AddScaled(2, b)
	d := a.ToDense()
	if d.At(0, 0) != 21 || d.At(1, 2) != 2 || d.At(2, 1) != 10 {
		t.Fatalf("AddScaled wrong: %v", d)
	}
}
