package sparsify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// busOverGrid builds a bus of nSig signal wires interleaved with ground
// returns, a structure where every sparsification method has work to do.
func busOverGrid(nSig int, pitch float64) (*geom.Layout, []int) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.025, HBelow: 1e-6},
	})
	var segs []int
	y := 0.0
	for i := 0; i < nSig; i++ {
		// ground - signal - ground - signal ... ground.
		segs = append(segs, l.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, Y0: y, Length: 800e-6, Width: 1.5e-6,
			Net: "GND", NodeA: nn("g", i, 0), NodeB: nn("g", i, 1)}))
		y += pitch
		segs = append(segs, l.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, Y0: y, Length: 800e-6, Width: 1.5e-6,
			Net: nn("s", i, -1), NodeA: nn("s", i, 0), NodeB: nn("s", i, 1)}))
		y += pitch
	}
	segs = append(segs, l.AddSegment(geom.Segment{
		Layer: 0, Dir: geom.DirX, Y0: y, Length: 800e-6, Width: 1.5e-6,
		Net: "GND", NodeA: "glast0", NodeB: "glast1"}))
	return l, segs
}

func nn(p string, i, k int) string {
	s := p + string(rune('0'+i))
	switch k {
	case 0:
		return s + "a"
	case 1:
		return s + "b"
	}
	return s
}

func fullL(t *testing.T) (*geom.Layout, []int, *matrix.Dense) {
	t.Helper()
	l, segs := busOverGrid(4, 3e-6)
	lp := extract.InductanceMatrix(l, segs, math.Inf(1), extract.GMDOptions{}, new(extract.KernelCache))
	if !matrix.IsPositiveDefinite(lp) {
		t.Fatal("reference L not PD")
	}
	return l, segs, lp
}

func TestTruncateAggressiveLosesPD(t *testing.T) {
	_, _, lp := fullL(t)
	// The paper: truncation gives no stability guarantee. With this
	// geometry a mid-range threshold destroys positive definiteness
	// while a tiny one preserves it.
	gentle := Truncate(lp, 1e-4)
	if !gentle.PositiveDefinite {
		t.Errorf("near-zero threshold should preserve PD")
	}
	if gentle.KeptFraction < 0.99 {
		t.Errorf("near-zero threshold dropped too much: %g", gentle.KeptFraction)
	}
	foundFailure := false
	for _, th := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7} {
		r := Truncate(lp, th)
		if !r.PositiveDefinite {
			foundFailure = true
			if r.MinEigen >= 0 {
				t.Errorf("failed audit must report negative eigenvalue, got %g", r.MinEigen)
			}
			break
		}
	}
	if !foundFailure {
		t.Errorf("expected some truncation threshold to break positive definiteness")
	}
}

func TestBlockDiagonalAlwaysPD(t *testing.T) {
	lay, segs, lp := fullL(t)
	for _, nSec := range []int{1, 2, 3, 5, len(segs)} {
		sec := SectionsByCrossCoordinate(lay, segs, nSec)
		r := BlockDiagonal(lp, sec)
		if !r.PositiveDefinite {
			t.Errorf("block-diagonal with %d sections lost PD", nSec)
		}
		if nSec == 1 && r.KeptFraction != 1 {
			t.Errorf("single section should keep everything")
		}
		if nSec == len(segs) && r.KeptFraction != 0 {
			t.Errorf("per-segment sections should keep nothing, kept %g", r.KeptFraction)
		}
	}
}

func TestBlockDiagonalPDProperty(t *testing.T) {
	lay, segs, lp := fullL(t)
	f := func(seed int64) bool {
		// Random section assignment must still be PD.
		rng := seed
		sec := make([]int, len(segs))
		for i := range sec {
			rng = rng*6364136223846793005 + 1442695040888963407
			sec[i] = int(uint64(rng)>>33) % 3
		}
		return BlockDiagonal(lp, sec).PositiveDefinite
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	_ = lay
}

func TestShellMethod(t *testing.T) {
	lay, segs, lp := fullL(t)
	r := Shell(lay, segs, lp, 10e-6)
	if !r.PositiveDefinite {
		t.Errorf("shell result lost PD (min eig %g)", r.MinEigen)
	}
	if r.KeptFraction >= 1 || r.KeptFraction <= 0 {
		t.Errorf("shell kept fraction %g, expected partial sparsity", r.KeptFraction)
	}
	// Shell-relative self inductance is below the partial value.
	for i := 0; i < lp.Rows(); i++ {
		if r.L.At(i, i) >= lp.At(i, i) {
			t.Errorf("shell self L[%d] not reduced", i)
		}
	}
	// Widening the shell keeps more couplings and raises values toward
	// the original.
	r2 := Shell(lay, segs, lp, 100e-6)
	if r2.KeptFraction < r.KeptFraction {
		t.Errorf("larger shell kept less: %g < %g", r2.KeptFraction, r.KeptFraction)
	}
	if r2.L.At(0, 0) <= r.L.At(0, 0) {
		t.Errorf("larger shell should give larger self inductance")
	}
}

func TestHaloMethod(t *testing.T) {
	lay, segs, lp := fullL(t)
	isRet := func(net string) bool { return net == "GND" }
	r := Halo(lay, segs, lp, isRet)
	if !r.PositiveDefinite {
		t.Errorf("halo result lost PD (min eig %g)", r.MinEigen)
	}
	if r.KeptFraction >= 1 {
		t.Errorf("halo dropped nothing")
	}
	// Two signals separated by a ground line must be decoupled:
	// signals are at rows 1, 3, 5, 7 with grounds between.
	if r.L.At(1, 3) != 0 {
		t.Errorf("halo kept coupling across a return line: %g", r.L.At(1, 3))
	}
	// A signal still couples to its adjacent grounds.
	if r.L.At(1, 0) == 0 || r.L.At(1, 2) == 0 {
		t.Errorf("halo dropped coupling to bounding returns")
	}
}

func TestKMatrixLocality(t *testing.T) {
	_, _, lp := fullL(t)
	k, err := InvertToK(lp)
	if err != nil {
		t.Fatal(err)
	}
	// K must be the inverse.
	prod := lp.Mul(k)
	n := lp.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-6 {
				t.Fatalf("L*K != I at (%d,%d): %g", i, j, prod.At(i, j))
			}
		}
	}
	// The paper's point: K has higher locality than L. Compare the
	// relative magnitude of the farthest coupling.
	farL := math.Abs(lp.At(0, n-1)) / lp.At(0, 0)
	farK := math.Abs(k.At(0, n-1)) / math.Abs(k.At(0, 0))
	if farK >= farL {
		t.Errorf("K locality not better than L: K %g vs L %g", farK, farL)
	}
}

func TestWindowedKApproximatesExactK(t *testing.T) {
	_, _, lp := fullL(t)
	exact, err := InvertToK(lp)
	if err != nil {
		t.Fatal(err)
	}
	kw, err := WindowedK(lp, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal within a few percent of the exact inverse diagonal.
	for i := 0; i < lp.Rows(); i++ {
		if math.Abs(kw.At(i, i)-exact.At(i, i))/exact.At(i, i) > 0.05 {
			t.Errorf("windowed K diagonal %d off: %g vs %g", i, kw.At(i, i), exact.At(i, i))
		}
	}
	// Full window reproduces the exact inverse.
	kFull, err := WindowedK(lp, lp.Rows())
	if err != nil {
		t.Fatal(err)
	}
	diff := kFull.Clone().AddScaled(-1, exact)
	if diff.MaxAbs() > 1e-6*exact.MaxAbs() {
		t.Errorf("full-window K differs from exact inverse by %g", diff.MaxAbs())
	}
}

// TestHaloRadiiMatchBruteForce pins the indexed expanding-window
// nearest-return search against the all-pairs scan it replaced: the
// radii must be identical on regular and irregular layouts, so the
// sparsified matrix is too.
func TestHaloRadiiMatchBruteForce(t *testing.T) {
	brute := func(lay *geom.Layout, segs []int, isReturn HaloReturn) []float64 {
		n := len(segs)
		radius := make([]float64, n)
		var spanLo, spanHi float64 = math.Inf(1), math.Inf(-1)
		for _, si := range segs {
			c := lay.Segments[si].CrossCoord()
			spanLo = math.Min(spanLo, c)
			spanHi = math.Max(spanHi, c)
		}
		fallback := math.Max(spanHi-spanLo, 1e-9)
		for i := 0; i < n; i++ {
			si := &lay.Segments[segs[i]]
			c := si.CrossCoord()
			below, above := math.Inf(1), math.Inf(1)
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				sj := &lay.Segments[segs[j]]
				if sj.Dir != si.Dir || !isReturn(sj.Net) {
					continue
				}
				if lay.OverlapLength(segs[i], segs[j]) <= 0 {
					continue
				}
				d := sj.CrossCoord() - c
				if d < 0 && -d < below {
					below = -d
				}
				if d > 0 && d < above {
					above = d
				}
			}
			var r float64
			switch {
			case !math.IsInf(below, 1) && !math.IsInf(above, 1):
				r = below + above
			case !math.IsInf(below, 1):
				r = 2 * below
			case !math.IsInf(above, 1):
				r = 2 * above
			default:
				r = fallback
			}
			if r <= 0 {
				r = fallback
			}
			radius[i] = r
		}
		return radius
	}
	isReturn := func(net string) bool { return net == "gnd" }

	// Regular bus with interleaved returns.
	lay, segs := busOverGrid(6, 3e-6)
	got := haloRadii(lay, segs, isReturn)
	want := brute(lay, segs, isReturn)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bus: radius[%d] = %g, want %g", i, got[i], want[i])
		}
	}

	// Irregular layout: random staggered wires, sparse returns, some
	// segments with no return neighbour on one or both sides.
	rng := rand.New(rand.NewSource(41))
	lay2 := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	var segs2 []int
	for i := 0; i < 60; i++ {
		net := "sig"
		if rng.Intn(4) == 0 {
			net = "gnd"
		}
		dir := geom.DirX
		if rng.Intn(2) == 1 {
			dir = geom.DirY
		}
		segs2 = append(segs2, lay2.AddSegment(geom.Segment{
			Layer: 0, Dir: dir,
			X0: rng.Float64() * 400e-6, Y0: rng.Float64() * 400e-6,
			Length: 20e-6 + rng.Float64()*200e-6, Width: 1e-6,
			Net: net, NodeA: "a", NodeB: "b",
		}))
	}
	got = haloRadii(lay2, segs2, isReturn)
	want = brute(lay2, segs2, isReturn)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("random: radius[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}
