package design

import (
	"math"
	"testing"

	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
)

var planeTestFreqs = []float64{1e9, 5e9, 1e10, 5e10}

// TestMicrostripMatchesStripEmulation is the legacy-equivalence
// property: the solid-plane Microstrip and the strip-array emulation
// (LOverFrequency with VariantPlane) describe the same Fig. 6
// structure — same metal footprint, same loop topology — so their loop
// inductances must track within a coarse tolerance across the sweep,
// and both must fall monotonically with frequency as the return
// current crowds under the signal. The structures are not identical
// (gapped strips vs continuous metal, different return-current spread),
// so the tolerance is structural, not numerical: 30% covers the
// divergence at 50 GHz where the solid plane crowds harder than the
// strip array can.
func TestMicrostripMatchesStripEmulation(t *testing.T) {
	ms, err := Microstrip(DefaultMicrostripSpec(), planeTestFreqs,
		fasthenry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := LOverFrequency(DefaultPlaneSpec(), VariantPlane, planeTestFreqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ms {
		lp := legacy[i]
		if rel := math.Abs(p.L-lp.L) / lp.L; rel > 0.30 {
			t.Errorf("f=%.3g: plane L=%.4g vs strip-emulation L=%.4g (rel %.2f > 0.30)",
				p.Freq, p.L, lp.L, rel)
		}
		if p.R <= 0 || p.L <= 0 {
			t.Errorf("f=%.3g: non-physical extraction R=%g L=%g", p.Freq, p.R, p.L)
		}
		if i > 0 {
			if p.L > ms[i-1].L {
				t.Errorf("plane loop L rises with frequency: L(%.3g)=%.4g > L(%.3g)=%.4g",
					p.Freq, p.L, ms[i-1].Freq, ms[i-1].L)
			}
			if lp.L > legacy[i-1].L {
				t.Errorf("strip-emulation loop L rises with frequency at f=%.3g", lp.Freq)
			}
		}
	}
}

// TestMicrostripHoleRaisesL perforates the plane under the signal: the
// return-current detour must raise the loop inductance, monotonically
// with hole size — the effect Tolpygo et al. (part II) measure on
// perforated superconductor ground planes. PlaneNW=12 puts several
// grid nodes inside each hole so the detour actually resolves.
func TestMicrostripHoleRaisesL(t *testing.T) {
	extractL := func(holes []geom.Hole) float64 {
		spec := DefaultMicrostripSpec()
		spec.PlaneNW = 12
		spec.Holes = holes
		pts, err := Microstrip(spec, []float64{1e9},
			fasthenry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].L
	}
	solid := extractL(nil)
	small := extractL([]geom.Hole{{X0: 600e-6, Y0: -6e-6, X1: 900e-6, Y1: 6e-6}})
	large := extractL([]geom.Hole{{X0: 400e-6, Y0: -12e-6, X1: 1100e-6, Y1: 12e-6}})
	if !(small > solid) {
		t.Errorf("hole under the signal did not raise L: solid %.5g, perforated %.5g", solid, small)
	}
	if !(large > small) {
		t.Errorf("L not monotone in hole size: small-hole %.5g, large-hole %.5g", small, large)
	}
}

// TestPlaneSpecValidation pins the generator-level rejections.
func TestPlaneSpecValidation(t *testing.T) {
	bad := DefaultMicrostripSpec()
	bad.SignalW = 0
	if _, _, _, _, err := MicrostripLayout(bad); err == nil {
		t.Error("zero signal width accepted")
	}
	bad = DefaultMicrostripSpec()
	bad.PlaneW = -1e-6
	if _, _, _, _, err := MicrostripLayout(bad); err == nil {
		t.Error("negative plane width accepted")
	}
	// An out-of-range mesh density must fail at solver construction,
	// before any extraction work.
	spec := DefaultMicrostripSpec()
	spec.PlaneNW = 1
	if _, err := Microstrip(spec, []float64{1e9}, fasthenry.Options{}); err == nil {
		t.Error("PlaneNW=1 accepted")
	}
}
