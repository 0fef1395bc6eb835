package pkgmodel

import (
	"math"
	"testing"

	"inductance101/internal/circuit"
	"inductance101/internal/sim"
)

func TestPresets(t *testing.T) {
	wb, fc := WireBond(), FlipChip()
	if wb.LeadL <= fc.LeadL {
		t.Errorf("wire bond must have more inductance than flip chip")
	}
	if fc.LeadL <= 0 || fc.LeadR <= 0 || fc.PadR <= 0 {
		t.Errorf("flip chip preset non-physical: %+v", fc)
	}
}

func TestStampImpedance(t *testing.T) {
	c := Connection{LeadR: 0.1, LeadL: 2e-9, PadR: 0.05}
	n := circuit.New()
	vi := n.AddV("v", "ext", "0", circuit.DC(0))
	if _, err := c.Stamp(n, "pkg", "ext", "0"); err != nil {
		t.Fatal(err)
	}
	f := 1e9
	z, err := sim.InputImpedance(n, vi, f)
	if err != nil {
		t.Fatal(err)
	}
	wantR := 0.15
	wantX := 2 * math.Pi * f * 2e-9
	if math.Abs(real(z)-wantR)/wantR > 1e-6 || math.Abs(imag(z)-wantX)/wantX > 1e-6 {
		t.Errorf("stamped package Z = %v, want %g + j%g", z, wantR, wantX)
	}
}

func TestStampValidation(t *testing.T) {
	n := circuit.New()
	if _, err := (Connection{LeadR: 0, LeadL: 1e-9, PadR: 0.1}).Stamp(n, "p", "a", "b"); err == nil {
		t.Errorf("zero lead R accepted")
	}
}
