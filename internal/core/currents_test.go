package core

import (
	"math"
	"testing"

	"inductance101/internal/sim"
)

// TestFig1CurrentsPinned pins the Fig. 1 current analysis of the
// default case (the EXPERIMENTS E1 run: 1.2 ns at 4 ps steps) to 1e-9
// relative: the short-circuit and charging charges and the 50% crossing
// of the driver output. The values were recorded from the Newton engine
// on the dense LU; the sparse LU rounds differently, so the tolerance
// sits well above the last bits and far below anything the figure
// shows.
func TestFig1CurrentsPinned(t *testing.T) {
	c, err := NewClockCase(DefaultCaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := c.CurrentAnalysis(1.2e-9, 4e-12)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := sim.CrossTime(cc.Times, cc.VOut, c.Opt.Vdd/2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name      string
		got, want float64
	}{
		{"QShort", cc.QShort, 8.9524268529538857e-14},
		{"QCharge", cc.QCharge, 1.2929350393046477e-13},
		{"fig1_out 50% crossing", cross, 3.7791864958198553e-10},
	} {
		if rel := math.Abs(p.got-p.want) / p.want; !(rel <= 1e-9) {
			t.Errorf("%s = %.17g, want %.17g (%.2g relative)", p.name, p.got, p.want, rel)
		}
	}
}
