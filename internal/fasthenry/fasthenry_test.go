package fasthenry

import (
	"math"
	"testing"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
)

// signalOverReturn builds the canonical Fig. 3(a) structure: a signal
// wire with ground return lines on both sides, all tied together at the
// far end (the "receiver shorted to local ground" port definition).
func signalOverReturn(length, width, pitch float64) (*geom.Layout, []int, Port, [][2]string) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
	})
	sig := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: length, Width: width, Net: "sig", NodeA: "sig0", NodeB: "sig1"})
	g1 := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: -pitch,
		Length: length, Width: width, Net: "gnd", NodeA: "g1a", NodeB: "g1b"})
	g2 := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: pitch,
		Length: length, Width: width, Net: "gnd", NodeA: "g2a", NodeB: "g2b"})
	port := Port{Plus: "sig0", Minus: "g1a"}
	shorts := [][2]string{
		{"sig1", "g1b"}, {"g1b", "g2b"}, // receiver end shorted to returns
		{"g1a", "g2a"}, // returns tied at the driver end
	}
	return l, []int{sig, g1, g2}, port, shorts
}

func TestDCResistanceMatchesAnalytic(t *testing.T) {
	length, width, pitch := 1000e-6, 2e-6, 6e-6
	l, segs, port, shorts := signalOverReturn(length, width, pitch)
	s, err := NewSolver(l, segs, port, shorts, 1e9, Options{NW: 1, NT: 1})
	if err != nil {
		t.Fatal(err)
	}
	rdc, err := s.DCResistance()
	if err != nil {
		t.Fatal(err)
	}
	// Signal R + (two returns in parallel): 0.022*1000/2 = 11 ohm
	// signal, 5.5 ohm return pair => 16.5 ohm loop.
	rSeg := 0.022 * length / width
	want := rSeg + rSeg/2
	if math.Abs(rdc-want)/want > 1e-6 {
		t.Errorf("DC loop resistance %g, want %g", rdc, want)
	}
}

func TestLoopRIncreasesLDecreasesWithFrequency(t *testing.T) {
	// The paper's Fig. 3(b): loop resistance rises and loop inductance
	// falls as frequency grows (current crowds into low-inductance
	// paths / skin of the conductors).
	l, segs, port, shorts := signalOverReturn(2000e-6, 8e-6, 20e-6)
	s, err := NewSolver(l, segs, port, shorts, 20e9, Options{MaxPerSide: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFilaments() <= 3 {
		t.Fatalf("expected multi-filament discretization, got %d", s.NumFilaments())
	}
	pts, err := s.Sweep(LogSpace(1e8, 2e10, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].R < pts[i-1].R*(1-1e-9) {
			t.Errorf("R(f) decreased: %g@%g -> %g@%g",
				pts[i-1].R, pts[i-1].Freq, pts[i].R, pts[i].Freq)
		}
		if pts[i].L > pts[i-1].L*(1+1e-9) {
			t.Errorf("L(f) increased: %g@%g -> %g@%g",
				pts[i-1].L, pts[i-1].Freq, pts[i].L, pts[i].Freq)
		}
	}
	// Both must stay physical.
	for _, p := range pts {
		if p.R <= 0 || p.L <= 0 {
			t.Fatalf("unphysical extraction at %g Hz: R=%g L=%g", p.Freq, p.R, p.L)
		}
	}
}

func TestLoopInductanceMatchesPartialFormula(t *testing.T) {
	// With single filaments and symmetric returns, the low-frequency
	// loop inductance of signal + two parallel returns has the closed
	// form L = Ls + (Lg + Mgg)/2 - 2*Msg (return current splits evenly).
	length, width, pitch := 1000e-6, 2e-6, 5e-6
	l, segs, port, shorts := signalOverReturn(length, width, pitch)
	s, err := NewSolver(l, segs, port, shorts, 1e9, Options{NW: 1, NT: 1})
	if err != nil {
		t.Fatal(err)
	}
	z, err := s.Impedance(1e6) // low frequency: uniform current split
	if err != nil {
		t.Fatal(err)
	}
	_, lGot := RL(z, 1e6)
	th := 1e-6
	ls := extract.SelfInductanceBar(length, width, th)
	msg := extract.MutualFilaments(length, length, 0, pitch)
	mgg := extract.MutualFilaments(length, length, 0, 2*pitch)
	want := ls + (ls+mgg)/2 - 2*msg
	if math.Abs(lGot-want)/want > 0.02 {
		t.Errorf("loop L = %g, closed form %g", lGot, want)
	}
}

func TestCloserReturnsLowerLoopInductance(t *testing.T) {
	extractL := func(pitch float64) float64 {
		l, segs, port, shorts := signalOverReturn(1000e-6, 2e-6, pitch)
		s, err := NewSolver(l, segs, port, shorts, 1e9, Options{NW: 1, NT: 1})
		if err != nil {
			t.Fatal(err)
		}
		z, err := s.Impedance(1e9)
		if err != nil {
			t.Fatal(err)
		}
		_, lv := RL(z, 1e9)
		return lv
	}
	lNear := extractL(3e-6)
	lFar := extractL(30e-6)
	if lNear >= lFar {
		t.Errorf("closer returns must lower loop L: near %g far %g", lNear, lFar)
	}
}

func TestSolverErrors(t *testing.T) {
	l, segs, port, shorts := signalOverReturn(100e-6, 1e-6, 3e-6)
	if _, err := NewSolver(l, nil, port, shorts, 1e9, Options{}); err == nil {
		t.Errorf("empty segment list accepted")
	}
	if _, err := NewSolver(l, segs, Port{Plus: "sig0", Minus: "sig0"}, nil, 1e9, Options{}); err == nil {
		t.Errorf("degenerate port accepted")
	}
	// Shorting a segment end-to-end is rejected.
	bad := append([][2]string{{"sig0", "sig1"}}, shorts...)
	if _, err := NewSolver(l, segs, port, bad, 1e9, Options{}); err == nil {
		t.Errorf("end-to-end short accepted")
	}
	// Disconnected port: no shorts at the far end leaves no loop.
	if _, err := NewSolver(l, segs, port, nil, 1e9, Options{NW: 1, NT: 1}); err == nil {
		s, _ := NewSolver(l, segs, port, nil, 1e9, Options{NW: 1, NT: 1})
		if _, err2 := s.Impedance(1e9); err2 == nil {
			t.Errorf("disconnected network should fail to solve")
		}
	}
}

func TestViasShortLayers(t *testing.T) {
	// A two-layer loop closed by vias must extract a finite impedance.
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
		{Name: "M6", Z: 6e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
	})
	a := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, Length: 500e-6, Width: 2e-6,
		Net: "sig", NodeA: "a0", NodeB: "a1"})
	b := l.AddSegment(geom.Segment{Layer: 1, Dir: geom.DirX, Length: 500e-6, Width: 2e-6,
		Net: "ret", NodeA: "b0", NodeB: "b1"})
	l.AddVia(geom.Via{X: 500e-6, Y: 0, LayerLo: 0, LayerHi: 1, Resistance: 0.5,
		NodeLo: "a1", NodeHi: "b1"})
	s, err := NewSolver(l, []int{a, b}, Port{Plus: "a0", Minus: "b0"}, nil, 1e9, Options{NW: 1, NT: 1})
	if err != nil {
		t.Fatal(err)
	}
	z, err := s.Impedance(1e9)
	if err != nil {
		t.Fatal(err)
	}
	r, lv := RL(z, 1e9)
	if r <= 0 || lv <= 0 {
		t.Errorf("via loop: R=%g L=%g", r, lv)
	}
}

func TestLogSpace(t *testing.T) {
	fs := LogSpace(1e8, 1e10, 3)
	if len(fs) != 3 || fs[0] != 1e8 || math.Abs(fs[1]-1e9)/1e9 > 1e-12 || math.Abs(fs[2]-1e10)/1e10 > 1e-12 {
		t.Errorf("LogSpace = %v", fs)
	}
	if one := LogSpace(5, 10, 1); len(one) != 1 || one[0] != 5 {
		t.Errorf("LogSpace n=1 = %v", one)
	}
}

func TestSkinEffectResistanceRatio(t *testing.T) {
	// A wide, thick conductor must show a larger high/low frequency
	// resistance ratio than a thin one whose cross-section is already
	// below the skin depth.
	ratio := func(width float64) float64 {
		l, segs, port, shorts := signalOverReturn(2000e-6, width, 4*width)
		s, err := NewSolver(l, segs, port, shorts, 50e9, Options{MaxPerSide: 5})
		if err != nil {
			t.Fatal(err)
		}
		zLo, err := s.Impedance(1e7)
		if err != nil {
			t.Fatal(err)
		}
		zHi, err := s.Impedance(5e10)
		if err != nil {
			t.Fatal(err)
		}
		return real(zHi) / real(zLo)
	}
	wide := ratio(10e-6)
	thin := ratio(1e-6)
	if wide <= thin {
		t.Errorf("skin effect ratio: wide %g <= thin %g", wide, thin)
	}
	if wide < 1.05 {
		t.Errorf("wide conductor shows no skin effect: ratio %g", wide)
	}
}

// TestFilamentAssemblyCacheBitIdentical builds the same solver with the
// kernel cache enabled and disabled: the filament partial-inductance
// matrix, and therefore the extracted port impedance, must match to the
// last bit (the cache memoizes exact kernel outputs only).
func TestFilamentAssemblyCacheBitIdentical(t *testing.T) {
	l, segs, port, shorts := signalOverReturn(1500e-6, 6e-6, 15e-6)
	build := func(cache *extract.KernelCache) *Solver {
		s, err := NewSolver(l, segs, port, shorts, 10e9, Options{MaxPerSide: 4, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	off := build(nil)
	on := build(new(extract.KernelCache))
	nf := off.NumFilaments()
	if on.NumFilaments() != nf {
		t.Fatalf("filament counts differ: %d vs %d", on.NumFilaments(), nf)
	}
	for i := 0; i < nf; i++ {
		for j := 0; j < nf; j++ {
			a, b := off.denseLP().At(i, j), on.denseLP().At(i, j)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("lp(%d,%d): %v != %v", i, j, a, b)
			}
		}
	}
	za, err := off.Impedance(5e9)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := on.Impedance(5e9)
	if err != nil {
		t.Fatal(err)
	}
	if za != zb {
		t.Fatalf("impedance differs: %v vs %v", za, zb)
	}
}
