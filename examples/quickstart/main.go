// Quickstart: extract the parasitics of a signal wire and its return,
// look at the loop inductance, and watch what inductance does to a fast
// edge — the 60-second version of the whole paper.
package main

import (
	"fmt"

	"inductance101/internal/circuit"
	"inductance101/internal/engine"
	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/sim"
	"inductance101/internal/units"
)

func main() {
	// One Session carries the run's configuration (workers, solver
	// choice) through every stage. The zero Config is the
	// library default; results are bit-identical at any worker count.
	sess := engine.New(engine.Config{})

	// A 2mm global wire with a ground return 10um away, on a thick
	// upper metal layer.
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	sig := lay.AddSegment(geom.Segment{
		Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 2e-3, Width: 2e-6, Net: "sig", NodeA: "in", NodeB: "out",
	})
	ret := lay.AddSegment(geom.Segment{
		Layer: 0, Dir: geom.DirX, X0: 0, Y0: 10e-6,
		Length: 2e-3, Width: 2e-6, Net: "GND", NodeA: "g0", NodeB: "g1",
	})

	// 1. Extraction: partial R, L, C.
	par := extract.Extract(lay, sess.ExtractOptions())
	lSig := par.L.At(0, 0)
	m := par.L.At(0, 1)
	loopL := extract.LoopInductanceTwoWire(par.L.At(0, 0), par.L.At(1, 1), m)
	cTot := extract.GroundCap(lay, sig)
	fmt.Println("== extraction ==")
	fmt.Printf("signal:  R = %s, partial Lself = %s\n",
		units.FormatSI(par.R[0], "ohm"), units.FormatSI(lSig, "H"))
	fmt.Printf("mutual to return: M = %s  ->  loop L = %s\n",
		units.FormatSI(m, "H"), units.FormatSI(loopL, "H"))
	fmt.Printf("signal capacitance: %s\n", units.FormatSI(cTot, "F"))
	_ = ret

	// 2. What the loop inductance does to a 50ps edge: simulate the
	// wire as a lumped RLC driven by a realistic driver, with and
	// without the inductor.
	run := func(withL bool) *sim.TranResult {
		n := circuit.New()
		n.AddV("v", "src", "0", circuit.Pulse{
			V1: 0, V2: 1.8, Delay: 0.1e-9, Rise: 50e-12, Width: 5e-9, Fall: 50e-12,
		})
		n.AddR("rdrv", "src", "a", 15)
		n.AddR("rwire", "a", "b", par.R[0])
		if withL {
			n.AddL("lwire", "b", "c", loopL)
		} else {
			n.AddR("lshort", "b", "c", 1e-6)
		}
		n.AddC("cwire", "c", "0", cTot)
		n.AddC("cload", "c", "0", 150e-15)
		res, err := sim.Tran(n, sim.TranOptions{TStop: 3e-9, TStep: 1e-12})
		if err != nil {
			panic(err)
		}
		return res
	}
	rc := run(false)
	rlc := run(true)

	fmt.Println("\n== 50ps edge into the wire ==")
	for name, res := range map[string]*sim.TranResult{"RC  ": rc, "RLC ": rlc} {
		v := res.MustV("c")
		d, err := sim.CrossTime(res.Times, v, 0.9, true)
		if err != nil {
			panic(err)
		}
		ov := sim.Overshoot(v, 1.8)
		fmt.Printf("%s model: 50%% delay %s, overshoot %s\n",
			name, units.FormatSI(d-0.125e-9, "s"), units.FormatSI(ov, "V"))
	}
	fmt.Println("\ninductance adds delay and overshoot — that is the whole story;")
	fmt.Println("run examples/clocknet for the paper's full Table 1 experiment.")
}
