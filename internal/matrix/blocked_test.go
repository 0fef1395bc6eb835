package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// The blocked/parallel kernels promise bit-identical results to the
// unblocked references at every worker count (they preserve per-entry
// operation order). These tests assert exactly that, over sizes that
// straddle the block boundary, hit panel remainders, and exercise the
// parallel splits.

var equivSizes = []int{1, 2, 5, blockSize - 1, blockSize, blockSize + 1,
	2*blockSize + 3, 3 * blockSize, 67, 100}

var workerCounts = []int{1, 2, 3, 7}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestFactorLUBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range equivSizes {
		a := randDense(rng, n, n)
		ref, err := FactorLUUnblocked(a)
		if err != nil {
			t.Fatalf("n=%d: reference LU failed: %v", n, err)
		}
		for _, w := range workerCounts {
			got, err := FactorLUWorkers(a, w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: blocked LU failed: %v", n, w, err)
			}
			if i, ok := bitsEqual(ref.lu.data, got.lu.data); !ok {
				t.Errorf("n=%d workers=%d: factor differs at flat index %d: %x vs %x",
					n, w, i, math.Float64bits(ref.lu.data[i]), math.Float64bits(got.lu.data[i]))
			}
			if got.sign != ref.sign {
				t.Errorf("n=%d workers=%d: sign %d, want %d", n, w, got.sign, ref.sign)
			}
			for i := range ref.piv {
				if got.piv[i] != ref.piv[i] {
					t.Fatalf("n=%d workers=%d: piv[%d]=%d, want %d", n, w, i, got.piv[i], ref.piv[i])
				}
			}
		}
	}
}

func TestFactorLUBlockedSingular(t *testing.T) {
	// A structurally singular matrix must fail identically in both paths.
	n := 3 * blockSize
	a := randDense(rand.New(rand.NewSource(8)), n, n)
	copy(a.Row(n-1), a.Row(n-2)) // two equal rows
	if _, err := FactorLUUnblocked(a); err != ErrSingular {
		t.Fatalf("reference: err=%v, want ErrSingular", err)
	}
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("blocked: err=%v, want ErrSingular", err)
	}
}

func TestFactorCholeskyBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range equivSizes {
		a := randSPD(rng, n)
		ref, err := FactorCholeskyUnblocked(a)
		if err != nil {
			t.Fatalf("n=%d: reference Cholesky failed: %v", n, err)
		}
		for _, w := range workerCounts {
			got, err := FactorCholeskyWorkers(a, w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: blocked Cholesky failed: %v", n, w, err)
			}
			if i, ok := bitsEqual(ref.l.data, got.l.data); !ok {
				t.Errorf("n=%d workers=%d: factor differs at flat index %d", n, w, i)
			}
		}
		// The strictly upper triangle must stay exactly zero: L() exposes
		// the full matrix and solvers read it.
		got, _ := FactorCholesky(a)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got.l.data[i*n+j] != 0 {
					t.Fatalf("n=%d: upper triangle (%d,%d) = %g, want 0", n, i, j, got.l.data[i*n+j])
				}
			}
		}
	}
}

func TestFactorCholeskyBlockedIndefinite(t *testing.T) {
	n := 3 * blockSize
	a := randSPD(rand.New(rand.NewSource(10)), n)
	a.data[(n/2)*n+(n/2)] = -1 // break positive definiteness
	if _, err := FactorCholeskyUnblocked(a); err != ErrNotPositiveDefinite {
		t.Fatalf("reference: err=%v, want ErrNotPositiveDefinite", err)
	}
	if _, err := FactorCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("blocked: err=%v, want ErrNotPositiveDefinite", err)
	}
}

func TestMulBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ r, k, c int }{
		{1, 1, 1},
		{blockSize - 1, blockSize + 1, 2*blockSize + 3},
		{2*blockSize + 3, blockSize - 1, blockSize + 1},
		{blockSize, blockSize, blockSize},
		{67, 35, 50}, // non-square, remainders in every dimension
		{64, 64, 64},
		{5, 70, 3}, // column count below one SIMD tile
	}
	for _, tc := range cases {
		a := randDense(rng, tc.r, tc.k)
		b := randDense(rng, tc.k, tc.c)
		ref := a.MulUnblocked(b)
		for _, w := range workerCounts {
			// Call the blocked kernel directly so small cases exercise it
			// too (the public Mul dispatches by size).
			got := NewDense(tc.r, tc.c)
			mulBlocked(a, b, got, w)
			if i, ok := bitsEqual(ref.data, got.data); !ok {
				t.Errorf("%dx%dx%d workers=%d: blocked product differs at %d", tc.r, tc.k, tc.c, w, i)
			}
			if pub := a.mulWorkers(b, w); pub.rows != tc.r || pub.cols != tc.c {
				t.Fatalf("Mul returned %dx%d", pub.rows, pub.cols)
			} else if i, ok := bitsEqual(ref.data, pub.data); !ok {
				t.Errorf("%dx%dx%d workers=%d: Mul differs at %d", tc.r, tc.k, tc.c, w, i)
			}
		}
	}
}

func TestMulTransBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct{ r, k, c int }{
		{blockSize + 1, 7, 5},
		{67, 35, 50},
		{64, 12, 12}, // PRIMA-like: tall skinny V, V^T * (n x q)
		{200, 8, 8},
		{3, 2, 1},
	}
	for _, tc := range cases {
		a := randDense(rng, tc.r, tc.k) // result is k x c
		b := randDense(rng, tc.r, tc.c)
		ref := a.T().MulUnblocked(b)
		for _, w := range workerCounts {
			got := a.mulTransWorkers(b, w)
			if got.rows != tc.k || got.cols != tc.c {
				t.Fatalf("MulTrans returned %dx%d", got.rows, got.cols)
			}
			// MulTrans accumulates dot products in the same k order as the
			// transpose-then-multiply reference, but the reference skips
			// exact zeros; with continuous random data both see the same
			// operations, so demand bit equality.
			if i, ok := bitsEqual(ref.data, got.data); !ok {
				t.Errorf("%dx%dx%d workers=%d: MulTrans differs at %d", tc.r, tc.k, tc.c, w, i)
			}
			direct := NewDense(tc.k, tc.c)
			mulTransRows(a, b, direct, 0, tc.k)
			if i, ok := bitsEqual(ref.data, direct.data); !ok {
				t.Errorf("%dx%dx%d: mulTransRows differs at %d", tc.r, tc.k, tc.c, i)
			}
		}
	}
}

func TestMulVecToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range equivSizes {
		m := randDense(rng, n, n+3)
		x := make([]float64, n+3)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n+3; j++ {
				s += m.data[i*(n+3)+j] * x[j]
			}
			ref[i] = s
		}
		if i, ok := bitsEqual(ref, m.MulVec(x)); !ok {
			t.Errorf("n=%d: MulVec differs at %d", n, i)
		}
		for _, w := range workerCounts {
			got := m.MulVecToWorkers(make([]float64, n), x, w)
			if i, ok := bitsEqual(ref, got); !ok {
				t.Errorf("n=%d workers=%d: MulVecTo differs at %d", n, w, i)
			}
		}
	}
}

func TestSolveMatParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n, nrhs := 2*blockSize+3, 9
	a := randDense(rng, n, n)
	spd := randSPD(rng, n)
	b := randDense(rng, n, nrhs)

	lu, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := FactorCholesky(spd)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: solve column by column by hand.
	luRef := NewDense(n, nrhs)
	chRef := NewDense(n, nrhs)
	col := make([]float64, n)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*nrhs+j]
		}
		xl, err := lu.Solve(col)
		if err != nil {
			t.Fatal(err)
		}
		xc, err := ch.Solve(col)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			luRef.data[i*nrhs+j] = xl[i]
			chRef.data[i*nrhs+j] = xc[i]
		}
	}
	for _, w := range workerCounts {
		luw, err := FactorLUWorkers(a, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := luw.SolveMat(b)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := bitsEqual(luRef.data, got.data); !ok {
			t.Errorf("workers=%d: LU SolveMat differs at %d", w, i)
		}
		chw, err := FactorCholeskyWorkers(spd, w)
		if err != nil {
			t.Fatal(err)
		}
		gotc, err := chw.SolveMat(b)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := bitsEqual(chRef.data, gotc.data); !ok {
			t.Errorf("workers=%d: Cholesky SolveMat differs at %d", w, i)
		}
	}
}

// TestBlockedWithinTolerance is the belt to the bit-identity suspenders:
// even if a future kernel change legitimately reorders arithmetic, the
// blocked results must stay within 1e-12 relative of the references.
func TestBlockedWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 2*blockSize + 3
	a := randSPD(rng, n)
	ref, _ := FactorCholeskyUnblocked(a)
	got, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	scale := ref.l.MaxAbs()
	for i := range ref.l.data {
		if d := math.Abs(ref.l.data[i] - got.l.data[i]); d > 1e-12*scale {
			t.Fatalf("entry %d differs by %g (scale %g)", i, d, scale)
		}
	}
}

func TestParallelRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, w := range []int{1, 2, 4, 33} {
			seen := make([]int, n)
			ParallelRangeWorkers(w, n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, w, i, c)
				}
			}
		}
	}
}
