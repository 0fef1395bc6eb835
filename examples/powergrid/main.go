// Powergrid studies supply integrity on the generated P/G mesh: static
// IR drop, dynamic Ldi/dt droop through the package (wire-bond vs
// flip-chip), and how on-chip decoupling capacitance tames it — the
// §2/§3 current-loop story from the supply's point of view.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"inductance101/internal/circuit"
	"inductance101/internal/decap"
	"inductance101/internal/extract"
	"inductance101/internal/grid"
	"inductance101/internal/pkgmodel"
	"inductance101/internal/sim"
	"inductance101/internal/units"
)

const vdd = 1.8

func main() {
	m, err := grid.BuildPowerGrid(grid.StandardLayers(), grid.Spec{
		NX: 4, NY: 4, Pitch: 200e-6, Width: 5e-6,
		LayerX: 0, LayerY: 1, ViaR: 0.4,
	})
	check(err)
	par := extract.Extract(m.Layout, extract.DefaultOptions())

	// Static IR drop with a uniform 2mA/crossing draw.
	p, err := grid.BuildPEECNetlist(m.Layout, par, grid.PEECOptions{Mode: grid.ModeRC})
	check(err)
	n := p.Netlist
	check(m.AttachPackage(n, pkgmodel.FlipChip(), vdd))
	for i := 0; i < m.Spec.NY; i++ {
		for j := 0; j < m.Spec.NX; j++ {
			n.AddI(fmt.Sprintf("load%d_%d", i, j), m.VddX[i][j], m.GndX[i][j], circuit.DC(2e-3))
		}
	}
	drop, err := grid.IRDropDCSparseChol(m, n, vdd)
	check(err)
	fmt.Printf("== static IR drop ==\nworst VDD drop at 2mA/crossing: %s (%.2f%% of Vdd)\n\n",
		units.FormatSI(drop, "V"), 100*drop/vdd)

	// Dynamic droop: a burst of switching current at the grid centre,
	// package inductance closing the loop.
	fmt.Println("== dynamic Ldi/dt droop (centre crossing, 30mA burst) ==")
	fmt.Printf("%-12s %16s %16s\n", "package", "no decap", "with decap")
	for _, pkg := range []struct {
		name string
		conn pkgmodel.Connection
	}{
		{"flip-chip", pkgmodel.FlipChip()},
		{"wire-bond", pkgmodel.WireBond()},
	} {
		noDecap := droop(m, par, pkg.conn, 0)
		withDecap := droop(m, par, pkg.conn, 5e4)
		fmt.Printf("%-12s %16s %16s\n", pkg.name,
			units.FormatSI(noDecap, "V"), units.FormatSI(withDecap, "V"))
	}
	fmt.Println("\nwire-bond inductance multiplies the droop; decap absorbs the")
	fmt.Println("burst locally — the current loops of the paper's Fig. 1 in action.")
}

// droop simulates a triangular 30mA current burst at the grid centre
// and returns the worst VDD dip there.
func droop(m *grid.Model, par *extract.Parasitics, conn pkgmodel.Connection, decapWidth float64) float64 {
	p, err := grid.BuildPEECNetlist(m.Layout, par, grid.PEECOptions{Mode: grid.ModeRLC})
	check(err)
	n := p.Netlist
	check(m.AttachPackage(n, conn, vdd))
	if decapWidth > 0 {
		ref, err := decap.MeasureBlock(decap.Typical2001(), 100, 10, 1e6)
		check(err)
		est, err := decap.NewEstimator(ref, 0.85)
		check(err)
		m.AddDecap(n, est, decapWidth)
	}
	w, h := m.Extent()
	vddNode, gndNode := m.NearestGridNodes(w/2, h/2)
	n.AddI("burst", vddNode, gndNode, circuit.PWL{
		Times:  []float64{0.2e-9, 0.35e-9, 0.5e-9},
		Values: []float64{0, 30e-3, 0},
	})
	// A little background randomness so grids are never eerily quiet.
	rng := rand.New(rand.NewSource(7))
	m.AddBackgroundActivity(n, rng, 2, 2e-3, 1e-9)

	res, err := sim.Tran(n, sim.TranOptions{TStop: 2e-9, TStep: 2e-12})
	check(err)
	v := res.MustV(vddNode)
	minV := vdd
	for _, x := range v {
		minV = math.Min(minV, x)
	}
	return vdd - minV
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
