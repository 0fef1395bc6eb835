package extract

import (
	"math"
	"math/rand"
	"testing"

	"inductance101/internal/geom"
)

// gridLayout builds an nx x ny Manhattan grid: nx vertical and ny
// horizontal wires — both routing directions, many parallel conductors
// per direction.
func gridLayout(nx, ny int, length, width, pitch float64) (*geom.Layout, []int) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.025, HBelow: 1e-6},
		{Name: "M6", Z: 6e-6, Thickness: 1.1e-6, SheetRho: 0.020, HBelow: 1e-6},
	})
	var segs []int
	for i := 0; i < ny; i++ {
		segs = append(segs, l.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(i) * pitch,
			Length: length, Width: width, Net: "h", NodeA: "a", NodeB: "b",
		}))
	}
	for i := 0; i < nx; i++ {
		segs = append(segs, l.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirY, X0: float64(i) * pitch, Y0: 0,
			Length: length, Width: width, Net: "v", NodeA: "c", NodeB: "d",
		}))
	}
	return l, segs
}

// matvecAgainstDense checks the compressed operator against the dense
// partial-inductance matrix on random vectors.
func matvecAgainstDense(t *testing.T, l *geom.Layout, segs []int, tol float64, rng *rand.Rand, label string) *CompressedL {
	t.Helper()
	op := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Tol: 1e-8})
	dense := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{})
	n := len(segs)
	if op.Dim() != n {
		t.Fatalf("%s: dim %d, want %d", label, op.Dim(), n)
	}
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		op.ApplyTo(got, x)
		var errN, refN float64
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += dense.At(i, j) * x[j]
			}
			d := got[i] - want
			errN += d * d
			refN += want * want
		}
		if math.Sqrt(errN) > tol*math.Sqrt(refN) {
			t.Errorf("%s trial %d: matvec error %.3g of %.3g",
				label, trial, math.Sqrt(errN), math.Sqrt(refN))
		}
	}
	return op
}

// TestCompressInductanceMatvecBuses is the satellite property test on
// random parallel buses.
func TestCompressInductanceMatvecBuses(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(60)
		pitch := (2 + 6*rng.Float64()) * 1e-6
		length := (200 + 600*rng.Float64()) * 1e-6
		l := makeBusLayout(n, length, 1e-6, pitch)
		segs := make([]int, n)
		for i := range segs {
			segs[i] = i
		}
		matvecAgainstDense(t, l, segs, 1e-6, rng, "bus")
	}
}

// TestCompressInductanceMatvecGrid covers both routing directions: the
// cross-direction blocks are identically zero and must stay so.
func TestCompressInductanceMatvecGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l, segs := gridLayout(9, 9, 300e-6, 1e-6, 8e-6)
	op := matvecAgainstDense(t, l, segs, 1e-6, rng, "grid")
	// A vector supported on DirX wires must produce zero on DirY wires.
	n := len(segs)
	x := make([]float64, n)
	for i := 0; i < 9; i++ { // first 9 are DirX
		x[i] = 1
	}
	y := make([]float64, n)
	op.ApplyTo(y, x)
	for i := 9; i < n; i++ {
		if y[i] != 0 {
			t.Fatalf("cross-direction coupling leaked: y[%d] = %g", i, y[i])
		}
	}
}

// TestCompressedSymmetryExact: the compressed L must be exactly
// symmetric (blocks are stored once and applied both ways), not merely
// symmetric to ACA tolerance.
func TestCompressedSymmetryExact(t *testing.T) {
	l := makeBusLayout(40, 400e-6, 1e-6, 4e-6)
	segs := make([]int, 40)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Tol: 1e-6})
	n := op.Dim()
	ei := make([]float64, n)
	col := make([]float64, n)
	get := func(i, j int) float64 {
		ei[i] = 1
		op.ApplyTo(col, ei)
		ei[i] = 0
		return col[j]
	}
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 5 {
			a, b := get(i, j), get(j, i)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("L(%d,%d)=%v != L(%d,%d)=%v", i, j, a, j, i, b)
			}
		}
	}
}

// TestCompressedDiagAndEachUpper: Diag returns exact self terms; the
// EachUpper walk visits every upper-triangle pair exactly once and
// reconstructs the dense matrix to ACA tolerance (exactly, on near and
// diagonal blocks).
func TestCompressedDiagAndEachUpper(t *testing.T) {
	l := makeBusLayout(30, 350e-6, 1e-6, 3e-6)
	segs := make([]int, 30)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Tol: 1e-8})
	dense := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{})
	n := len(segs)
	for i := 0; i < n; i++ {
		if got, want := op.Diag(i), dense.At(i, i); got != want {
			t.Fatalf("Diag(%d) = %g, dense %g", i, got, want)
		}
	}
	seen := make(map[[2]int]float64)
	op.EachUpper(func(i, j int, v float64) {
		if i >= j {
			t.Fatalf("EachUpper visited non-strict pair (%d,%d)", i, j)
		}
		k := [2]int{i, j}
		if _, dup := seen[k]; dup {
			t.Fatalf("pair (%d,%d) visited twice", i, j)
		}
		seen[k] = v
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v, ok := seen[[2]int{i, j}]
			if !ok {
				t.Fatalf("pair (%d,%d) never visited", i, j)
			}
			want := dense.At(i, j)
			if math.Abs(v-want) > 1e-6*(1e-12+math.Abs(want)) {
				t.Errorf("EachUpper(%d,%d) = %g, dense %g", i, j, v, want)
			}
		}
	}
}

// TestCompressionActuallyCompresses: on a large regular bus the far
// field must dominate and be stored low-rank — the whole point of the
// operator. Also sanity-checks the stats accounting.
func TestCompressionActuallyCompresses(t *testing.T) {
	n := 160
	l := makeBusLayout(n, 500e-6, 1e-6, 2.5e-6)
	segs := make([]int, n)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Tol: 1e-8})
	st := op.Stats()
	if st.FarBlocks == 0 {
		t.Fatal("no low-rank blocks on a 160-wire bus")
	}
	if st.StoredFloats >= st.DenseFloats {
		t.Fatalf("compressed storage %d >= dense %d", st.StoredFloats, st.DenseFloats)
	}
	if r := st.CompressionRatio(); r <= 1 {
		t.Fatalf("compression ratio %g <= 1", r)
	}
	if st.KernelEvals >= st.DenseKernelEntries {
		t.Errorf("kernel evaluations %d not below dense upper triangle %d",
			st.KernelEvals, st.DenseKernelEntries)
	}
}

// TestACAMaxRankFallback: with MaxRank 1 far blocks mostly cannot reach
// tolerance, so the compressor must fall back to dense blocks rather
// than return inaccurate factors.
func TestACAMaxRankFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 40
	l := makeBusLayout(n, 400e-6, 1e-6, 3e-6)
	segs := make([]int, n)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Tol: 1e-12, MaxRank: 1})
	dense := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{})
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	op.ApplyTo(got, x)
	var errN, refN float64
	for i := 0; i < n; i++ {
		var want float64
		for j := 0; j < n; j++ {
			want += dense.At(i, j) * x[j]
		}
		d := got[i] - want
		errN += d * d
		refN += want * want
	}
	// Rank-1-capped blocks that fail tolerance fall back to dense, so
	// the result must still be accurate.
	if math.Sqrt(errN) > 1e-6*math.Sqrt(refN) {
		t.Errorf("MaxRank fallback lost accuracy: %.3g of %.3g",
			math.Sqrt(errN), math.Sqrt(refN))
	}
}
