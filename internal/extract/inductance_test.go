package extract

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
	"inductance101/internal/units"
)

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestMutualFilamentsAgainstNeumannQuadrature(t *testing.T) {
	// Numerically integrate the Neumann double integral and compare
	// against the closed form for several geometries.
	cases := []struct{ la, lb, s, d float64 }{
		{100e-6, 100e-6, 0, 2e-6},
		{100e-6, 50e-6, 20e-6, 5e-6},
		{30e-6, 80e-6, -40e-6, 1e-6},
		{10e-6, 10e-6, 15e-6, 3e-6}, // disjoint along the axis
	}
	for _, c := range cases {
		got := MutualFilaments(c.la, c.lb, c.s, c.d)
		// Simpson quadrature of (mu0/4pi) ∬ dx dy / sqrt((x-y)^2+d^2).
		const n = 400
		hx := c.la / n
		hy := c.lb / n
		sum := 0.0
		for i := 0; i <= n; i++ {
			x := float64(i) * hx
			wi := simpsonW(i, n)
			for j := 0; j <= n; j++ {
				y := c.s + float64(j)*hy
				wj := simpsonW(j, n)
				sum += wi * wj / math.Hypot(x-y, c.d)
			}
		}
		want := units.Mu0 / (4 * math.Pi) * sum * hx * hy / 9
		if relErr(got, want) > 1e-4 {
			t.Errorf("M(%+v): closed form %g vs quadrature %g", c, got, want)
		}
	}
}

func simpsonW(i, n int) float64 {
	switch {
	case i == 0 || i == n:
		return 1
	case i%2 == 1:
		return 4
	default:
		return 2
	}
}

func TestMutualFilamentsCollinear(t *testing.T) {
	// Two collinear filaments (d=0), non-overlapping: finite positive M.
	m := MutualFilaments(10e-6, 10e-6, 20e-6, 0)
	if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		t.Fatalf("collinear mutual = %g", m)
	}
	// Must match the small-d limit.
	m2 := MutualFilaments(10e-6, 10e-6, 20e-6, 1e-12)
	if relErr(m, m2) > 1e-6 {
		t.Errorf("d=0 limit mismatch: %g vs %g", m, m2)
	}
}

func TestSelfInductanceAgainstRuehli(t *testing.T) {
	// For long thin bars the GMD evaluation and the log approximation
	// must agree to ~1%.
	for _, c := range []struct{ l, w, t float64 }{
		{1000e-6, 1e-6, 0.5e-6},
		{500e-6, 2e-6, 1e-6},
		{2000e-6, 5e-6, 1e-6},
	} {
		a := SelfInductanceBar(c.l, c.w, c.t)
		b := RuehliSelfInductance(c.l, c.w, c.t)
		if relErr(a, b) > 0.01 {
			t.Errorf("l=%g w=%g t=%g: GMD %g vs Ruehli %g (%.2f%%)",
				c.l, c.w, c.t, a, b, 100*relErr(a, b))
		}
	}
}

func TestSelfInductanceMagnitude(t *testing.T) {
	// Classic rule of thumb: on-chip wires run ~0.5-1 pH/um of partial
	// self inductance. A 1000 um x 2 um x 0.5 um line should land in
	// [0.5, 2] nH.
	l := SelfInductanceBar(1000e-6, 2e-6, 0.5e-6)
	if l < 0.5e-9 || l > 2e-9 {
		t.Errorf("1mm wire self inductance = %s, expected ~1nH",
			units.FormatSI(l, "H"))
	}
}

func TestMutualDecreasesWithDistance(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []float64{1e-6, 2e-6, 5e-6, 10e-6, 50e-6, 200e-6} {
		m := MutualFilaments(100e-6, 100e-6, 0, d)
		if m <= 0 || m >= prev {
			t.Fatalf("mutual not monotonically decreasing at d=%g: %g >= %g", d, m, prev)
		}
		prev = m
	}
}

func TestMutualLessThanSelf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 10e-6 + rng.Float64()*1000e-6
		w := 0.5e-6 + rng.Float64()*5e-6
		th := 0.2e-6 + rng.Float64()*1e-6
		d := (w + th) * (0.5 + rng.Float64()*50)
		self := SelfInductanceBar(l, w, th)
		mut := MutualFilaments(l, l, 0, d+w) // centre distance > GMD_self
		return mut < self && mut > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNumericGMDFarLimit(t *testing.T) {
	// For widely separated cross sections, GMD -> centre distance.
	g := NumericGMD(0, 1e-6, 0, 0.5e-6, 100e-6, 1e-6, 0, 0.5e-6)
	centre := 100e-6
	if relErr(g, centre) > 1e-3 {
		t.Errorf("far GMD = %g, want ~%g", g, centre)
	}
}

func TestNumericGMDCloseIsBelowCentreDistance(t *testing.T) {
	// For adjacent wide conductors the GMD is smaller than the centre
	// distance (current spreads toward facing edges... actually for
	// coplanar rectangles GMD < centre distance slightly).
	aw := 4e-6
	g := NumericGMD(0, aw, 0, 0.5e-6, 5e-6, aw, 0, 0.5e-6)
	centre := 5e-6
	if g <= 0 || math.Abs(g-centre)/centre > 0.2 {
		t.Errorf("close GMD = %g, centre %g: implausible", g, centre)
	}
}

func TestNumericGMDAdjacentSegmentsExact(t *testing.T) {
	// Exact result for two adjacent collinear thin strips [0,l], [l,2l]:
	// ln GMD = ln l + 2 ln 2 - 3/2, i.e. GMD = 4 e^{-3/2} l ≈ 0.8925 l.
	l := 1e-6
	thin := l * 1e-5
	g := NumericGMD(0, l, 0, thin, l, l, 0, thin)
	want := 4 * math.Exp(-1.5) * l
	if relErr(g, want) > 0.01 {
		t.Errorf("adjacent-strip GMD %g vs exact %g", g, want)
	}
}

func makeBusLayout(nWires int, length, width, pitch float64) *geom.Layout {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Index: 0, Z: 4e-6, Thickness: 1e-6, SheetRho: 0.025, HBelow: 1e-6},
	})
	for i := 0; i < nWires; i++ {
		l.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(i) * pitch,
			Length: length, Width: width,
			Net:   string(rune('a' + i)),
			NodeA: "n" + string(rune('a'+i)) + "0",
			NodeB: "n" + string(rune('a'+i)) + "1",
		})
	}
	return l
}

func TestInductanceMatrixProperties(t *testing.T) {
	l := makeBusLayout(6, 500e-6, 1e-6, 2e-6)
	segs := []int{0, 1, 2, 3, 4, 5}
	m := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{})
	if !m.IsSymmetric(1e-12) {
		t.Fatalf("L not symmetric")
	}
	if !matrix.IsPositiveDefinite(m) {
		t.Fatalf("full partial L matrix must be positive definite")
	}
	// Diagonal dominance of physical partial inductance in magnitude:
	// L_ii > L_ij for all j.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i != j && m.At(i, j) >= m.At(i, i) {
				t.Errorf("L[%d,%d] >= L[%d,%d]", i, j, i, i)
			}
		}
	}
	// Windowed matrix: far mutuals dropped.
	mw := InductanceMatrix(l, segs, 3e-6, GMDOptions{})
	if mw.At(0, 5) != 0 {
		t.Errorf("window did not drop far mutual")
	}
	if mw.At(0, 1) == 0 {
		t.Errorf("window dropped near mutual")
	}
}

func TestInductanceMatrixPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		pitch := (1.5 + rng.Float64()*5) * 1e-6
		length := (50 + rng.Float64()*500) * 1e-6
		l := makeBusLayout(n, length, 1e-6, pitch)
		segs := make([]int, n)
		for i := range segs {
			segs[i] = i
		}
		m := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{})
		return matrix.IsPositiveDefinite(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLoopInductanceShrinksWithCloserReturn(t *testing.T) {
	// Loop inductance of a signal + return pair decreases as the return
	// is brought closer — the core design guideline of §7.
	length := 1000e-6
	self := SelfInductanceBar(length, 1e-6, 0.5e-6)
	prev := math.Inf(1)
	for _, d := range []float64{50e-6, 20e-6, 10e-6, 4e-6, 2e-6} {
		m := MutualFilaments(length, length, 0, d)
		loop := LoopInductanceTwoWire(self, self, m)
		if loop >= prev {
			t.Fatalf("loop L not decreasing at d=%g", d)
		}
		if loop <= 0 {
			t.Fatalf("loop L must stay positive, got %g", loop)
		}
		prev = loop
	}
}

func TestOrthogonalMutualZero(t *testing.T) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.025, HBelow: 1e-6},
	})
	l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, Length: 100e-6, Width: 1e-6, Net: "a", NodeA: "a0", NodeB: "a1"})
	l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirY, X0: 50e-6, Y0: -50e-6, Length: 100e-6, Width: 1e-6, Net: "b", NodeA: "b0", NodeB: "b1"})
	m := InductanceMatrix(l, []int{0, 1}, math.Inf(1), GMDOptions{})
	if m.At(0, 1) != 0 {
		t.Errorf("orthogonal mutual = %g, want 0", m.At(0, 1))
	}
}

// randomLayout builds an irregular two-layer layout with both routing
// directions, random sizes and random offsets — the adversarial case
// for the spatial index (no grid regularity).
func randomLayout(rng *rand.Rand, nSegs int) (*geom.Layout, []int) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 0.9e-6, SheetRho: 0.025, HBelow: 1.0e-6},
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	segs := make([]int, nSegs)
	for i := range segs {
		dir := geom.DirX
		if rng.Intn(2) == 1 {
			dir = geom.DirY
		}
		segs[i] = l.AddSegment(geom.Segment{
			Layer:  rng.Intn(2),
			Dir:    dir,
			X0:     rng.Float64() * 200e-6,
			Y0:     rng.Float64() * 200e-6,
			Length: 10e-6 + rng.Float64()*150e-6,
			Width:  0.4e-6 + rng.Float64()*3e-6,
			Net:    "n",
			NodeA:  "a",
			NodeB:  "b",
		})
	}
	return l, segs
}

func requireBitIdentical(t *testing.T, want, got *matrix.Dense, label string) {
	t.Helper()
	n := want.Rows()
	if got.Rows() != n {
		t.Fatalf("%s: size %d != %d", label, got.Rows(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := want.At(i, j), got.At(i, j)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: (%d,%d) %v != %v (bits %x vs %x)",
					label, i, j, a, b, math.Float64bits(a), math.Float64bits(b))
			}
		}
	}
}

// TestWindowedIndexMatchesBruteForce pins the spatial-index candidate
// path against a brute-force all-pairs windowed reference: the index
// may only prune pairs the window test would reject anyway.
func TestWindowedIndexMatchesBruteForce(t *testing.T) {
	bruteForce := func(l *geom.Layout, segs []int, window float64, opt GMDOptions) *matrix.Dense {
		n := len(segs)
		m := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			si := &l.Segments[segs[i]]
			th := l.Layers[si.Layer].Thickness
			m.Set(i, i, SelfInductanceBar(si.Length, si.Width, th))
			for j := i + 1; j < n; j++ {
				sj := &l.Segments[segs[j]]
				pg, ok := l.Parallel(segs[i], segs[j])
				if !ok || pg.D > window {
					continue
				}
				tj := l.Layers[sj.Layer].Thickness
				v := MutualBars(pg, si.Width, th, sj.Width, tj, opt)
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		l, segs := randomLayout(rng, 30)
		window := []float64{1e-6, 10e-6, 50e-6, 400e-6}[trial%4]
		ref := bruteForce(l, segs, window, GMDOptions{})
		got := InductanceMatrix(l, segs, window, GMDOptions{})
		requireBitIdentical(t, ref, got, "indexed windowed")
	}
	// Collinear far-apart segments: perpendicular distance is zero even
	// though the bounding boxes are a millimetre apart — the stretched
	// query box must still find the pair.
	l := geom.NewLayout([]geom.Layer{{Name: "M6", Thickness: 1e-6, SheetRho: 0.02, HBelow: 1e-6}})
	a := l.AddSegment(geom.Segment{Dir: geom.DirX, X0: 0, Y0: 3e-6, Length: 100e-6, Width: 1e-6, Net: "n", NodeA: "a", NodeB: "b"})
	b := l.AddSegment(geom.Segment{Dir: geom.DirX, X0: 1e-3, Y0: 0, Length: 100e-6, Width: 1e-6, Net: "n", NodeA: "c", NodeB: "d"})
	segs := []int{a, b}
	ref := bruteForce(l, segs, 5e-6, GMDOptions{})
	if ref.At(0, 1) == 0 {
		t.Fatal("test geometry broken: collinear pair should couple")
	}
	requireBitIdentical(t, ref, InductanceMatrix(l, segs, 5e-6, GMDOptions{}), "collinear pair")
}
