package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testLayers() []Layer {
	return []Layer{
		{Name: "M1", Index: 0, Z: 0.5e-6, Thickness: 0.3e-6, SheetRho: 0.08, HBelow: 0.5e-6},
		{Name: "M2", Index: 1, Z: 1.5e-6, Thickness: 0.5e-6, SheetRho: 0.05, HBelow: 0.7e-6},
		{Name: "M3", Index: 2, Z: 3.0e-6, Thickness: 1.0e-6, SheetRho: 0.02, HBelow: 1.0e-6},
	}
}

func TestSegmentGeometry(t *testing.T) {
	s := Segment{Layer: 0, Dir: DirX, X0: 1, Y0: 2, Length: 10, Width: 0.5}
	ex, ey := s.End()
	if ex != 11 || ey != 2 {
		t.Errorf("End = (%g,%g)", ex, ey)
	}
	lo, hi := s.AxisSpan()
	if lo != 1 || hi != 11 {
		t.Errorf("AxisSpan = (%g,%g)", lo, hi)
	}
	if s.CrossCoord() != 2 {
		t.Errorf("CrossCoord = %g", s.CrossCoord())
	}
	x0, y0, x1, y1 := s.BBox()
	if x0 != 1 || x1 != 11 || y0 != 1.75 || y1 != 2.25 {
		t.Errorf("BBox = (%g,%g,%g,%g)", x0, y0, x1, y1)
	}

	sy := Segment{Layer: 0, Dir: DirY, X0: 3, Y0: 0, Length: 4, Width: 1}
	ex, ey = sy.End()
	if ex != 3 || ey != 4 {
		t.Errorf("Y End = (%g,%g)", ex, ey)
	}
	if sy.CrossCoord() != 3 {
		t.Errorf("Y CrossCoord = %g", sy.CrossCoord())
	}
}

func TestDirectionString(t *testing.T) {
	if DirX.String() != "X" || DirY.String() != "Y" {
		t.Errorf("Direction strings wrong")
	}
}

func TestParallelGeometry(t *testing.T) {
	l := NewLayout(testLayers())
	a := l.AddSegment(Segment{Layer: 2, Dir: DirX, X0: 0, Y0: 0, Length: 100e-6, Width: 2e-6, Net: "a", NodeA: "a1", NodeB: "a2"})
	b := l.AddSegment(Segment{Layer: 2, Dir: DirX, X0: 20e-6, Y0: 5e-6, Length: 50e-6, Width: 2e-6, Net: "b", NodeA: "b1", NodeB: "b2"})
	c := l.AddSegment(Segment{Layer: 2, Dir: DirY, X0: 0, Y0: 0, Length: 10e-6, Width: 2e-6, Net: "c", NodeA: "c1", NodeB: "c2"})

	pg, ok := l.Parallel(a, b)
	if !ok {
		t.Fatalf("a,b should be parallel")
	}
	if pg.La != 100e-6 || pg.Lb != 50e-6 {
		t.Errorf("lengths wrong: %+v", pg)
	}
	if !eq(pg.S, 20e-6) || !eq(pg.D, 5e-6) {
		t.Errorf("offset/distance wrong: %+v", pg)
	}
	if _, ok := l.Parallel(a, c); ok {
		t.Errorf("orthogonal segments reported parallel")
	}

	// Cross-layer distance folds in z.
	d := l.AddSegment(Segment{Layer: 0, Dir: DirX, X0: 0, Y0: 0, Length: 100e-6, Width: 1e-6, Net: "d", NodeA: "d1", NodeB: "d2"})
	pg, ok = l.Parallel(a, d)
	if !ok {
		t.Fatalf("a,d should be parallel")
	}
	dz := (3.0e-6 + 0.5e-6) - (0.5e-6 + 0.15e-6)
	if !eq(pg.D, dz) {
		t.Errorf("z distance = %g, want %g", pg.D, dz)
	}
}

func TestOverlapAndSpacing(t *testing.T) {
	l := NewLayout(testLayers())
	a := l.AddSegment(Segment{Layer: 2, Dir: DirX, X0: 0, Y0: 0, Length: 100, Width: 2, Net: "a", NodeA: "a1", NodeB: "a2"})
	b := l.AddSegment(Segment{Layer: 2, Dir: DirX, X0: 60, Y0: 10, Length: 100, Width: 4, Net: "b", NodeA: "b1", NodeB: "b2"})
	if got := l.OverlapLength(a, b); got != 40 {
		t.Errorf("OverlapLength = %g, want 40", got)
	}
	if got := l.EdgeSpacing(a, b); got != 7 {
		t.Errorf("EdgeSpacing = %g, want 7", got)
	}
	cI := l.AddSegment(Segment{Layer: 2, Dir: DirX, X0: 200, Y0: 0, Length: 10, Width: 1, Net: "c", NodeA: "c1", NodeB: "c2"})
	if got := l.OverlapLength(a, cI); got != 0 {
		t.Errorf("disjoint overlap = %g, want 0", got)
	}
	dI := l.AddSegment(Segment{Layer: 0, Dir: DirX, X0: 0, Y0: 0, Length: 10, Width: 1, Net: "d", NodeA: "d1", NodeB: "d2"})
	if !math.IsInf(l.EdgeSpacing(a, dI), 1) {
		t.Errorf("cross-layer spacing should be +Inf")
	}
}

func TestLayoutQueries(t *testing.T) {
	l := NewLayout(testLayers())
	l.AddSegment(Segment{Layer: 0, Dir: DirX, X0: 0, Y0: 0, Length: 5, Width: 1, Net: "VDD", NodeA: "v1", NodeB: "v2"})
	l.AddSegment(Segment{Layer: 0, Dir: DirX, X0: 0, Y0: 2, Length: 5, Width: 1, Net: "GND", NodeA: "g1", NodeB: "g2"})
	l.AddSegment(Segment{Layer: 1, Dir: DirY, X0: 0, Y0: 0, Length: 7, Width: 1, Net: "VDD", NodeA: "v3", NodeB: "v4"})
	if got := l.SegmentsOnNet("VDD"); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("SegmentsOnNet = %v", got)
	}
	nets := l.Nets()
	if len(nets) != 2 || nets[0] != "VDD" || nets[1] != "GND" {
		t.Errorf("Nets = %v", nets)
	}
	if got := l.TotalWireLength(); got != 17 {
		t.Errorf("TotalWireLength = %g", got)
	}
}

func TestValidate(t *testing.T) {
	l := NewLayout(testLayers())
	l.AddSegment(Segment{Layer: 0, Dir: DirX, X0: 0, Y0: 0, Length: 5, Width: 1, Net: "a", NodeA: "n1", NodeB: "n2"})
	if err := l.Validate(); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
	bad := *l
	bad.Segments = append([]Segment{}, l.Segments...)
	bad.Segments[0].NodeB = "n1"
	if err := bad.Validate(); err == nil {
		t.Errorf("loop segment accepted")
	}
	bad.Segments[0].NodeB = ""
	if err := bad.Validate(); err == nil {
		t.Errorf("empty node accepted")
	}
	l.AddVia(Via{X: 0, Y: 0, LayerLo: 0, LayerHi: 1, Resistance: 1, NodeLo: "n1", NodeHi: "n3"})
	if err := l.Validate(); err != nil {
		t.Errorf("valid via rejected: %v", err)
	}
	l.Vias[0].Resistance = 0
	if err := l.Validate(); err == nil {
		t.Errorf("zero-resistance via accepted")
	}
	l.Vias[0].Resistance = 1
	l.Vias[0].LayerLo = 1
	l.Vias[0].LayerHi = 0
	if err := l.Validate(); err == nil {
		t.Errorf("inverted via layers accepted")
	}
}

func TestAddSegmentPanics(t *testing.T) {
	l := NewLayout(testLayers())
	for _, s := range []Segment{
		{Layer: 9, Dir: DirX, Length: 1, Width: 1},
		{Layer: 0, Dir: DirX, Length: 0, Width: 1},
		{Layer: 0, Dir: DirX, Length: 1, Width: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", s)
				}
			}()
			l.AddSegment(s)
		}()
	}
}

func TestIndexFindsAllNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLayout(testLayers())
	for i := 0; i < 200; i++ {
		dir := DirX
		if rng.Intn(2) == 1 {
			dir = DirY
		}
		l.AddSegment(Segment{
			Layer: rng.Intn(3), Dir: dir,
			X0: rng.Float64() * 1e-3, Y0: rng.Float64() * 1e-3,
			Length: 1e-6 + rng.Float64()*50e-6, Width: 1e-6,
			Net: "n", NodeA: "a", NodeB: "b",
		})
	}
	idx := NewIndex(l, 0)
	const dist = 20e-6
	for i := 0; i < 20; i++ {
		got := idx.Neighbors(i, dist)
		gotSet := make(map[int]bool, len(got))
		for _, g := range got {
			gotSet[g] = true
		}
		// Brute force reference.
		ax0, ay0, ax1, ay1 := l.Segments[i].BBox()
		for j := range l.Segments {
			if j == i {
				continue
			}
			bx0, by0, bx1, by1 := l.Segments[j].BBox()
			inter := !(bx1 < ax0-dist || bx0 > ax1+dist || by1 < ay0-dist || by0 > ay1+dist)
			if inter && !gotSet[j] {
				t.Fatalf("index missed neighbor %d of %d", j, i)
			}
			if !inter && gotSet[j] {
				t.Fatalf("index reported non-neighbor %d of %d", j, i)
			}
		}
	}
}

func TestParallelCandidatesSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewLayout(testLayers())
	for i := 0; i < 200; i++ {
		dir := DirX
		if rng.Intn(2) == 1 {
			dir = DirY
		}
		l.AddSegment(Segment{
			Layer: rng.Intn(3), Dir: dir,
			X0: rng.Float64() * 1e-3, Y0: rng.Float64() * 1e-3,
			Length: 1e-6 + rng.Float64()*300e-6, Width: 0.5e-6 + rng.Float64()*2e-6,
			Net: "n", NodeA: "a", NodeB: "b",
		})
	}
	idx := NewIndex(l, 0)
	for _, window := range []float64{2e-6, 30e-6, 2e-3} {
		for i := 0; i < 40; i++ {
			got := idx.ParallelCandidates(i, window)
			gotSet := make(map[int]bool, len(got))
			for _, g := range got {
				if g == i {
					t.Fatalf("candidates for %d include itself", i)
				}
				gotSet[g] = true
			}
			// Every same-direction segment within perpendicular distance
			// window must be reported, regardless of longitudinal offset —
			// Parallel folds layer z into D, which only grows it, so the
			// in-plane cross distance is the binding test.
			for j := range l.Segments {
				if j == i || l.Segments[j].Dir != l.Segments[i].Dir {
					continue
				}
				dCross := math.Abs(l.Segments[j].CrossCoord() - l.Segments[i].CrossCoord())
				if dCross <= window && !gotSet[j] {
					t.Fatalf("window %g: candidates for %d miss parallel segment %d at cross distance %g",
						window, i, j, dCross)
				}
			}
		}
	}
}

func TestIndexEmptyLayout(t *testing.T) {
	l := NewLayout(testLayers())
	idx := NewIndex(l, 0)
	if got := idx.Query(0, 0, 1, 1, 0); len(got) != 0 {
		t.Errorf("empty layout query returned %v", got)
	}
}

func TestParallelSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLayout(testLayers())
		for i := 0; i < 2; i++ {
			l.AddSegment(Segment{
				Layer: rng.Intn(3), Dir: DirX,
				X0: rng.NormFloat64() * 1e-4, Y0: rng.NormFloat64() * 1e-4,
				Length: 1e-6 + rng.Float64()*1e-4, Width: 1e-6,
				Net: "n", NodeA: "a", NodeB: "b",
			})
		}
		ab, ok1 := l.Parallel(0, 1)
		ba, ok2 := l.Parallel(1, 0)
		if !ok1 || !ok2 {
			return false
		}
		// D symmetric; S antisymmetric; lengths swap.
		return eq(ab.D, ba.D) && eq(ab.S, -ba.S) && ab.La == ba.Lb && ab.Lb == ba.La
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func eq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
