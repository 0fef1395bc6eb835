package supply

import (
	"strings"
	"testing"

	"inductance101/internal/grid"
	"inductance101/internal/pkgmodel"
)

func fastSpec() Spec {
	s := DefaultSpec()
	s.Grid = grid.Spec{NX: 3, NY: 3, Pitch: 150e-6, Width: 4e-6, LayerX: 0, LayerY: 1, ViaR: 0.4}
	s.Bursts[0].X, s.Bursts[0].Y = 150e-6, 150e-6 // centre of 3x3
	s.TStop = 1.5e-9
	s.TStep = 3e-12
	return s
}

func TestAnalyzeBasics(t *testing.T) {
	r, err := Analyze(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstDroop <= 0 || r.WorstDroop > 0.9 {
		t.Errorf("worst droop %g implausible", r.WorstDroop)
	}
	if r.WorstBounce <= 0 {
		t.Errorf("no ground bounce")
	}
	if r.StaticIR <= 0 || r.StaticIR > r.WorstDroop {
		t.Errorf("static IR %g vs total droop %g: transient must exceed DC", r.StaticIR, r.WorstDroop)
	}
	if r.Dynamic <= 0 {
		t.Errorf("no dynamic (Ldi/dt + charge) component")
	}
	// The worst node should be the burst site (grid centre, index 1,1).
	if !strings.Contains(r.WorstNode, "_1_1") {
		t.Errorf("worst node %q not at the burst site", r.WorstNode)
	}
	if len(r.NodeDroop) != 9 {
		t.Errorf("droop map has %d nodes", len(r.NodeDroop))
	}
	// Droop decays away from the burst: corner below centre.
	if r.NodeDroop["vddx_0_0"] >= r.NodeDroop[r.WorstNode] {
		t.Errorf("corner droop %g not below burst-site droop %g",
			r.NodeDroop["vddx_0_0"], r.NodeDroop[r.WorstNode])
	}
}

func TestDecapSweepMonotone(t *testing.T) {
	spec := fastSpec()
	droops, err := DecapSweep(spec, []float64{0, 2e4, 8e4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(droops); i++ {
		if droops[i] >= droops[i-1] {
			t.Errorf("decap did not reduce droop: %v", droops)
		}
	}
}

func TestPackageComparison(t *testing.T) {
	spec := fastSpec()
	out, err := PackageComparison(spec, map[string]pkgmodel.Connection{
		"flipchip": pkgmodel.FlipChip(),
		"wirebond": pkgmodel.WireBond(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out["wirebond"] <= out["flipchip"] {
		t.Errorf("wire-bond droop %g not above flip-chip %g",
			out["wirebond"], out["flipchip"])
	}
}

func TestAnalyzeValidation(t *testing.T) {
	s := fastSpec()
	s.Bursts = nil
	if _, err := Analyze(s); err == nil {
		t.Errorf("no bursts accepted")
	}
	s = fastSpec()
	s.TStop = 0
	if _, err := Analyze(s); err == nil {
		t.Errorf("zero TStop accepted")
	}
}
