package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// sweepOperator builds the R + jωL-shaped test matrix at one frequency:
// a fixed well-conditioned Hermitian-dominant L with a real diagonal R,
// mimicking the extraction branch systems recycling exists for.
func sweepOperator(rng *rand.Rand, n int, omega float64, l [][]float64, r []float64) *CDense {
	a := NewCDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			re := 0.0
			if i == j {
				re = r[i]
			}
			a.Set(i, j, complex(re, omega*l[i][j]))
		}
	}
	return a
}

func randomSPDLike(rng *rand.Rand, n int) ([][]float64, []float64) {
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64() / float64(1+absInt(i-j))
			l[i][j], l[j][i] = v, v
		}
		l[i][i] += float64(n) // diagonally dominant: nonsingular at any omega
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 + rng.Float64()
	}
	return l, r
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// outlierL is the hard variant: a tight eigenvalue cluster plus a
// dozen small outlying modes. Restarted GMRES crawls on the outliers
// at every frequency — they are the few slow, persistent loop modes
// recycling is designed to deflate once and carry across the sweep.
func outlierL(rng *rand.Rand, n int) ([][]float64, []float64) {
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 + absInt(i-j)
			v := 0.01 * rng.NormFloat64() / float64(d*d)
			l[i][j], l[j][i] = v, v
		}
		if i < 12 {
			l[i][i] = 0.002 * float64(1+i)
		} else {
			l[i][i] = 1 + 0.1*rng.Float64()
		}
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = 0.001
	}
	return l, r
}

func checkResidual(t *testing.T, a *CDense, x, b []complex128, tol float64) {
	t.Helper()
	n := a.Rows()
	w := make([]complex128, n)
	CDenseOp{a}.ApplyTo(w, x)
	num, den := 0.0, cnorm(b)
	for i := range w {
		d := w[i] - b[i]
		num += real(d)*real(d) + imag(d)*imag(d)
	}
	if res := math.Sqrt(num) / den; res > tol {
		t.Fatalf("residual %.3g above %.3g", res, tol)
	}
}

// TestGMRESRecycledSavesIterations runs a mock frequency sweep twice —
// warm-start-free in both cases so the comparison isolates recycling —
// and requires the recycled run to spend fewer total Krylov iterations
// (net of the re-projection applies) than the plain run.
func TestGMRESRecycledSavesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 120
	l, r := outlierL(rng, n)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Anchor-solve spacing of a dense sweep: a few percent per step.
	omegas := make([]float64, 10)
	for i := range omegas {
		omegas[i] = 2.0 * math.Pow(1.04, float64(i))
	}
	opt := GMRESOptions{Tol: 1e-10, Restart: 25}

	plain := 0
	for _, om := range omegas {
		a := sweepOperator(rng, n, om, l, r)
		_, res, err := GMRES(CDenseOp{a}, b, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("plain GMRES stalled at omega=%g", om)
		}
		plain += res.Iters
	}

	rs := &RecycleSpace{MaxDim: 12}
	recycled := 0
	for _, om := range omegas {
		a := sweepOperator(rng, n, om, l, r)
		rs.Invalidate()
		x, res, err := GMRES(CDenseOp{a}, b, opt, rs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("recycled GMRES stalled at omega=%g", om)
		}
		checkResidual(t, a, x, b, 1e-9)
		recycled += res.Iters + res.RecycleApplies
	}
	if recycled >= plain {
		t.Fatalf("recycling saved nothing: %d iters+applies vs %d plain", recycled, plain)
	}
	t.Logf("plain %d iters, recycled %d iters+applies (%.0f%% saved)",
		plain, recycled, 100*float64(plain-recycled)/float64(plain))
}

// TestGMRESRecycledSharedOperator: multiple right-hand sides at one
// frequency share a single re-projection; only the first solve after
// Invalidate pays RecycleApplies.
func TestGMRESRecycledSharedOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 80
	l, r := randomSPDLike(rng, n)
	a := sweepOperator(rng, n, 1.5, l, r)
	opt := GMRESOptions{Tol: 1e-10, Restart: 20}

	rs := &RecycleSpace{}
	// Seed the space with one solve, then switch "frequency".
	b := make([]complex128, n)
	b[0] = 1
	if _, _, err := GMRES(CDenseOp{a}, b, opt, rs); err != nil {
		t.Fatal(err)
	}
	a2 := sweepOperator(rng, n, 1.9, l, r)
	rs.Invalidate()
	var applies []int
	for k := 0; k < 3; k++ {
		rhs := make([]complex128, n)
		rhs[k] = 1
		x, res, err := GMRES(CDenseOp{a2}, rhs, opt, rs)
		if err != nil {
			t.Fatal(err)
		}
		checkResidual(t, a2, x, rhs, 1e-9)
		applies = append(applies, res.RecycleApplies)
		if res.RecycledDim == 0 {
			t.Fatalf("solve %d ran without deflation", k)
		}
	}
	if applies[0] == 0 {
		t.Fatal("first solve after Invalidate did not re-project")
	}
	if applies[1] != 0 || applies[2] != 0 {
		t.Fatalf("later same-operator solves re-projected: %v", applies)
	}
}

// TestGMRESRecycledPreconditioned exercises the right-preconditioned
// path: the recycled basis must compose with a preconditioner that
// changes between solves.
func TestGMRESRecycledPreconditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 90
	l, r := randomSPDLike(rng, n)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), 0)
	}
	rs := &RecycleSpace{}
	for _, om := range []float64{1, 1.3, 1.7} {
		a := sweepOperator(rng, n, om, l, r)
		// Jacobi right preconditioner, frequency-dependent.
		dinv := make([]complex128, n)
		for i := range dinv {
			dinv[i] = 1 / a.At(i, i)
		}
		pre := func(dst, src []complex128) {
			for i := range dst {
				dst[i] = dinv[i] * src[i]
			}
		}
		rs.Invalidate()
		x, res, err := GMRES(CDenseOp{a}, b, GMRESOptions{Tol: 1e-10, Restart: 20, Precond: pre}, rs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("preconditioned recycled solve stalled at omega=%g: %+v", om, res)
		}
		checkResidual(t, a, x, b, 1e-9)
	}
}

// TestRecycleSpaceDimensionChange: feeding a space built at one
// dimension into a different-size operator must reset it, not corrupt
// the solve.
func TestRecycleSpaceDimensionChange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l1, r1 := randomSPDLike(rng, 40)
	a1 := sweepOperator(rng, 40, 1, l1, r1)
	b1 := make([]complex128, 40)
	b1[0] = 1
	rs := &RecycleSpace{}
	if _, _, err := GMRES(CDenseOp{a1}, b1, GMRESOptions{Tol: 1e-10}, rs); err != nil {
		t.Fatal(err)
	}
	if rs.Dim() == 0 {
		t.Fatal("no harvest")
	}
	l2, r2 := randomSPDLike(rng, 25)
	a2 := sweepOperator(rng, 25, 1, l2, r2)
	b2 := make([]complex128, 25)
	b2[3] = 1
	rs.Invalidate()
	x, res, err := GMRES(CDenseOp{a2}, b2, GMRESOptions{Tol: 1e-10}, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.RecycledDim != 0 {
		t.Fatalf("dimension change not handled: %+v", res)
	}
	checkResidual(t, a2, x, b2, 1e-9)
}

// TestGMRESRecycledHarvestOverflowMidSolve: a solve that restarts after
// a harvest has overflowed MaxDim (dropping the projected columns the
// solve started with) deflates only the columns that are left.
func TestGMRESRecycledHarvestOverflowMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 120
	l, r := outlierL(rng, n)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	opt := GMRESOptions{Tol: 1e-10, Restart: 10}
	rs := &RecycleSpace{MaxDim: recycleHarvest}
	for _, om := range []float64{2, 2.1} {
		a := sweepOperator(rng, n, om, l, r)
		rs.Invalidate()
		x, res, err := GMRES(CDenseOp{a}, b, opt, rs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Restarts < 2 {
			t.Fatalf("omega=%g: converged %v after %d restarts, want convergence over several cycles",
				om, res.Converged, res.Restarts)
		}
		checkResidual(t, a, x, b, 1e-9)
	}
}
