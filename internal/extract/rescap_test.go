package extract

import (
	"math"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/units"
)

func twoWireLayout(spacing float64) *geom.Layout {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 0.8e-6, SheetRho: 0.03, HBelow: 1e-6},
	})
	l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 200e-6, Width: 1e-6, Net: "a", NodeA: "a0", NodeB: "a1"})
	l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: spacing + 1e-6,
		Length: 200e-6, Width: 1e-6, Net: "b", NodeA: "b0", NodeB: "b1"})
	return l
}

func TestResistance(t *testing.T) {
	l := twoWireLayout(1e-6)
	// R = 0.03 ohm/sq * 200um / 1um = 6 ohm.
	if got := Resistance(l, 0); relErr(got, 6) > 1e-12 {
		t.Errorf("Resistance = %g, want 6", got)
	}
}

func TestGroundCapMagnitude(t *testing.T) {
	// Typical on-chip wire: ~0.1-0.3 fF/um total. 200um wire should be
	// tens of fF.
	l := twoWireLayout(1e-6)
	c := GroundCap(l, 0)
	if c < 5e-15 || c > 100e-15 {
		t.Errorf("ground cap = %s, expected tens of fF", units.FormatSI(c, "F"))
	}
	// Wider wire has more capacitance.
	l.Segments[0].Width = 4e-6
	if GroundCap(l, 0) <= c {
		t.Errorf("wider wire should have more ground cap")
	}
}

func TestCouplingCapBehaviour(t *testing.T) {
	cNear := CouplingCap(twoWireLayout(0.5e-6), 0, 1)
	cFar := CouplingCap(twoWireLayout(4e-6), 0, 1)
	if cNear <= 0 || cFar <= 0 {
		t.Fatalf("coupling caps must be positive: %g %g", cNear, cFar)
	}
	if cNear <= cFar {
		t.Errorf("coupling must increase at smaller spacing: near %g far %g", cNear, cFar)
	}
	// Orthogonal or different-layer pairs couple zero in this model.
	l := twoWireLayout(1e-6)
	l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirY, X0: 50e-6, Y0: -100e-6,
		Length: 50e-6, Width: 1e-6, Net: "c", NodeA: "c0", NodeB: "c1"})
	if CouplingCap(l, 0, 2) != 0 {
		t.Errorf("orthogonal coupling should be 0")
	}
}

func TestCapPanics(t *testing.T) {
	for _, f := range []func(){
		func() { GroundCapPerLength(1e-6, 1e-6, 0) },
		func() { CouplingCapPerLength(1e-6, 1e-6, 1e-6, 0) },
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

func TestExtractFullLayout(t *testing.T) {
	l := twoWireLayout(1e-6)
	p := Extract(l, DefaultOptions())
	if len(p.R) != 2 || p.L.Rows() != 2 {
		t.Fatalf("wrong element counts: %d R, %dx%d L", len(p.R), p.L.Rows(), p.L.Cols())
	}
	if p.L.At(0, 1) <= 0 {
		t.Errorf("mutual inductance missing")
	}
	// pi-model: half the ground cap at each end node.
	if p.CGround["a0"] <= 0 || relErr(p.CGround["a0"], p.CGround["a1"]) > 1e-12 {
		t.Errorf("pi split wrong: %g vs %g", p.CGround["a0"], p.CGround["a1"])
	}
	if relErr(p.CGround["a0"]+p.CGround["a1"], GroundCap(l, 0)) > 1e-12 {
		t.Errorf("ground cap not conserved")
	}
	// Coupling caps: two halves between end-node pairs.
	if len(p.CCoupling) != 2 {
		t.Fatalf("expected 2 coupling cap halves, got %d", len(p.CCoupling))
	}
	tot := p.CCoupling[0].C + p.CCoupling[1].C
	if relErr(tot, CouplingCap(l, 0, 1)) > 1e-12 {
		t.Errorf("coupling cap not conserved: %g", tot)
	}
	st := p.Stats()
	if st.NumR != 2 || st.NumL != 2 || st.NumMutual != 1 || st.NumCCouple != 2 {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestExtractCouplingWindow(t *testing.T) {
	l := twoWireLayout(10e-6)
	opt := DefaultOptions()
	opt.CouplingWindow = 2e-6
	p := Extract(l, opt)
	if len(p.CCoupling) != 0 {
		t.Errorf("coupling beyond window extracted: %v", p.CCoupling)
	}
	opt.CouplingWindow = 50e-6
	p = Extract(l, opt)
	if len(p.CCoupling) != 2 {
		t.Errorf("coupling inside window missing")
	}
}

func TestExtractSegmentsSubset(t *testing.T) {
	l := twoWireLayout(1e-6)
	p := ExtractSegments(l, []int{1}, DefaultOptions())
	if len(p.R) != 1 || p.L.Rows() != 1 {
		t.Errorf("subset extraction wrong size")
	}
	if _, ok := p.CGround["a0"]; ok {
		t.Errorf("subset extraction leaked other segment's nodes")
	}
}

func TestExtractMutualWindowInf(t *testing.T) {
	l := twoWireLayout(1e-6)
	opt := Options{MutualWindow: 0, CouplingWindow: 0} // zeros -> defaults
	p := Extract(l, opt)
	if p.L.At(0, 1) == 0 {
		t.Errorf("default mutual window should be infinite")
	}
	if math.IsNaN(p.L.At(0, 1)) {
		t.Errorf("NaN mutual")
	}
}
