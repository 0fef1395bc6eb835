package loopmodel

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"inductance101/internal/circuit"
	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/sim"
)

// ladderFor builds a known ladder to generate synthetic "extraction"
// data.
func refLadder() Ladder {
	return Ladder{R0: 5, L0: 1.2e-9, Sections: []Section{{R: 8, L: 2.5e-9}}}
}

func TestFitTwoPointRecoversExactLadder(t *testing.T) {
	ref := refLadder()
	f1, f2 := 2e8, 2e10
	ld, err := FitTwoPoint(ref.Z(f1), f1, ref.Z(f2), f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.Sections) != 1 {
		t.Fatalf("expected one section, got %d", len(ld.Sections))
	}
	for _, c := range []struct{ got, want float64 }{
		{ld.R0, ref.R0}, {ld.L0, ref.L0},
		{ld.Sections[0].R, ref.Sections[0].R},
		{ld.Sections[0].L, ref.Sections[0].L},
	} {
		if math.Abs(c.got-c.want)/c.want > 1e-9 {
			t.Errorf("fit parameter %g, want %g", c.got, c.want)
		}
	}
	// Interpolated frequencies must match too (same model class).
	for _, f := range []float64{5e8, 2e9, 8e9} {
		if cmplx.Abs(ld.Z(f)-ref.Z(f))/cmplx.Abs(ref.Z(f)) > 1e-9 {
			t.Errorf("fit deviates at %g Hz", f)
		}
	}
}

func TestFitTwoPointDegenerate(t *testing.T) {
	// Frequency-independent impedance: plain RL.
	z := func(f float64) complex128 { return complex(10, 2*math.Pi*f*1e-9) }
	ld, err := FitTwoPoint(z(1e9), 1e9, z(1e10), 1e10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.Sections) != 0 || math.Abs(ld.R0-10) > 1e-9 || math.Abs(ld.L0-1e-9) > 1e-21 {
		t.Errorf("degenerate fit = %+v", ld)
	}
	if _, err := FitTwoPoint(0, 1e10, 0, 1e9); err == nil {
		t.Errorf("inverted frequency order accepted")
	}
}

func TestLadderAsymptotes(t *testing.T) {
	ld := refLadder()
	rLo, lLo := ld.RL(1e3)
	rHi, lHi := ld.RL(1e15)
	// DC: every section's L in series; fully crowded: every R.
	lowL, highR := ld.L0, ld.R0
	for _, s := range ld.Sections {
		lowL += s.L
		highR += s.R
	}
	if math.Abs(rLo-ld.R0)/ld.R0 > 1e-6 {
		t.Errorf("low-f R = %g, want %g", rLo, ld.R0)
	}
	if math.Abs(lLo-lowL)/lowL > 1e-6 {
		t.Errorf("low-f L = %g, want %g", lLo, lowL)
	}
	if math.Abs(rHi-highR)/highR > 1e-6 {
		t.Errorf("high-f R = %g, want %g", rHi, highR)
	}
	if math.Abs(lHi-ld.L0)/ld.L0 > 1e-6 {
		t.Errorf("high-f L = %g, want %g", lHi, ld.L0)
	}
}

func TestLadderMonotonicityProperty(t *testing.T) {
	// R(f) non-decreasing, L(f) non-increasing for any passive ladder.
	f := func(r0u, l0u, r1u, l1u uint16) bool {
		ld := Ladder{
			R0: 0.1 + float64(r0u)/1000,
			L0: 1e-10 + float64(l0u)*1e-12,
			Sections: []Section{{
				R: 0.1 + float64(r1u)/1000,
				L: 1e-10 + float64(l1u)*1e-12,
			}},
		}
		prevR, prevL := ld.RL(1e6)
		for _, fr := range fasthenry.LogSpace(1e7, 1e12, 11) {
			r, l := ld.RL(fr)
			if r < prevR*(1-1e-9) || l > prevL*(1+1e-9) {
				return false
			}
			prevR, prevL = r, l
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFitSections(t *testing.T) {
	// A 3-section reference fit with 3 sections over a sweep: small error.
	ref := Ladder{R0: 3, L0: 1e-9, Sections: []Section{
		{R: 2, L: 4e-9}, {R: 5, L: 1e-9}, {R: 8, L: 0.3e-9},
	}}
	var pts []fasthenry.Point
	for _, f := range fasthenry.LogSpace(1e8, 1e11, 25) {
		z := ref.Z(f)
		r, l := fasthenry.RL(z, f)
		pts = append(pts, fasthenry.Point{Freq: f, Z: z, R: r, L: l})
	}
	ld, err := FitSections(pts, 6)
	if err != nil {
		t.Fatal(err)
	}
	errR, errL := ld.MaxRelErr(pts)
	if errR > 0.05 || errL > 0.05 {
		t.Errorf("multi-section fit errors: R %g, L %g", errR, errL)
	}
	if _, err := FitSections(pts[:2], 4); err == nil {
		t.Errorf("underdetermined fit accepted")
	}
	if _, err := FitSections(pts, 0); err == nil {
		t.Errorf("zero sections accepted")
	}
}

func TestStampMatchesLadderImpedance(t *testing.T) {
	// AC analysis of the stamped netlist must reproduce Ladder.Z.
	for _, ld := range []Ladder{
		refLadder(),
		{R0: 5, L0: 1.2e-9}, // no sections
		{R0: 0, L0: 1e-9, Sections: []Section{{2, 1e-9}}}, // no R0
		{R0: 4, L0: 0, Sections: []Section{{2, 1e-9}}},    // no L0
		{R0: 0, L0: 0, Sections: []Section{{2, 1e-9}}},    // bare section
	} {
		n := circuit.New()
		vi := n.AddV("v", "p", "0", circuit.DC(0))
		ld.Stamp(n, "lad", "p", "0")
		for _, f := range []float64{1e8, 1e9, 2e10} {
			z, err := sim.InputImpedance(n, vi, f)
			if err != nil {
				t.Fatalf("ladder %+v: %v", ld, err)
			}
			want := ld.Z(f)
			if cmplx.Abs(z-want)/cmplx.Abs(want) > 1e-6 {
				t.Errorf("ladder %+v at %g Hz: stamped Z %v, want %v", ld, f, z, want)
			}
		}
	}
}

func TestEndToEndFitFromFastHenry(t *testing.T) {
	// Extract a real structure, fit at two frequencies, and verify the
	// ladder tracks the solver across the band (the Fig. 3(b)/(d)
	// story). Wide conductors so R(f) actually moves.
	l := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 5e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.2e-6},
	})
	sig := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, Length: 3000e-6, Width: 6e-6,
		Net: "clk", NodeA: "s0", NodeB: "s1"})
	g1 := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, Y0: -30e-6, Length: 3000e-6, Width: 6e-6,
		Net: "gnd", NodeA: "g0", NodeB: "g1"})
	g2 := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, Y0: 12e-6, Length: 3000e-6, Width: 2e-6,
		Net: "gnd", NodeA: "h0", NodeB: "h1"})
	s, err := fasthenry.NewSolver(l, []int{sig, g1, g2},
		fasthenry.Port{Plus: "s0", Minus: "g0"},
		[][2]string{{"s1", "g1"}, {"g1", "h1"}, {"g0", "h0"}},
		2e10, fasthenry.Options{MaxPerSide: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Sweep(fasthenry.LogSpace(1e8, 2e10, 9))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := FitTwoPoint(pts[0].Z, pts[0].Freq, pts[len(pts)-1].Z, pts[len(pts)-1].Freq)
	if err != nil {
		t.Fatal(err)
	}
	errR, errL := ld.MaxRelErr(pts)
	// One section through two points: mid-band error should be modest.
	if errR > 0.25 || errL > 0.10 {
		t.Errorf("two-point ladder errors across band: R %g, L %g", errR, errL)
	}
	// And the 4-section LS fit must do at least as well on L.
	ld4, err := FitSections(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	errR4, errL4 := ld4.MaxRelErr(pts)
	if errL4 > errL+1e-9 && errR4 > errR+1e-9 {
		t.Errorf("4-section fit (R %g, L %g) no better than 1-section (R %g, L %g)",
			errR4, errL4, errR, errL)
	}
}
