// Command gridnoise runs the supply-noise analyzer: a localized
// switching burst on a PEEC-modeled power grid, reporting the worst
// droop, its static-IR/dynamic decomposition, the droop map, and the
// effect of the two design levers (decap budget, package choice). The
// static IR is one sparse Cholesky solve of the DC system.
//
// With -synth N it instead exercises the production-scale path: a
// streaming-assembled synthetic multi-layer grid of ~N nodes solved by
// multigrid-preconditioned CG, optionally (-synthtran) with the
// cached-hierarchy backward-Euler transient of a clock-gating burst.
// -workers caps that path's multigrid parallelism; the PEEC analyzer
// has no parallel solve, so -workers without -synth is rejected, and
// the PEEC-analyzer flags are rejected together with -synth.
//
// Usage:
//
//	gridnoise [-nx 4] [-ny 4] [-pitch 150e-6] [-burst 25e-3]
//	          [-decap 2e4] [-sweep] [-packages]
//	gridnoise -synth N [-synthtran] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"inductance101/internal/grid"
	"inductance101/internal/matrix"
	"inductance101/internal/pkgmodel"
	"inductance101/internal/sim"
	"inductance101/internal/supply"
	"inductance101/internal/units"
)

func main() {
	var (
		nx      = flag.Int("nx", 4, "grid lines per direction (X)")
		ny      = flag.Int("ny", 4, "grid lines per direction (Y)")
		pitch   = flag.Float64("pitch", 150e-6, "grid pitch (m)")
		burst   = flag.Float64("burst", 25e-3, "burst peak current (A)")
		dcap    = flag.Float64("decap", 2e4, "decap budget, total transistor width (um)")
		sweep   = flag.Bool("sweep", false, "sweep the decap budget")
		pkgs    = flag.Bool("packages", false, "compare package models")
		workers = flag.Int("workers", 0, "with -synth: multigrid worker cap (0 = all cores)")
		synthN  = flag.Int("synth", 0, "run the synthetic-grid MG path at ~N nodes instead of the PEEC analyzer")
		synthTr = flag.Bool("synthtran", false, "with -synth: run the cached-hierarchy transient too")
	)
	flag.Parse()
	// Flags that would be silently ignored fail here, before any grid
	// is built.
	if *synthN < 0 {
		fatal(fmt.Errorf("-synth must be a non-negative node count, got %d", *synthN))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be a non-negative worker cap, got %d", *workers))
	}
	if *synthTr && *synthN == 0 {
		fatal(fmt.Errorf("-synthtran needs a positive -synth node count, got %d", *synthN))
	}
	if *workers != 0 && *synthN == 0 {
		fatal(fmt.Errorf("-workers %d needs a positive -synth node count: the PEEC analyzer runs no parallel solve", *workers))
	}
	if *synthN > 0 {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nx", "ny", "pitch", "burst", "decap", "sweep", "packages":
				fatal(fmt.Errorf("-%s %s is a PEEC-analyzer flag: the -synth %d multigrid path would ignore it", f.Name, f.Value, *synthN))
			}
		})
	}

	if *synthN > 0 {
		runSynth(*synthN, *workers, *synthTr)
		return
	}

	spec := supply.DefaultSpec()
	spec.Grid = grid.Spec{NX: *nx, NY: *ny, Pitch: *pitch, Width: 4e-6, LayerX: 0, LayerY: 1, ViaR: 0.4}
	spec.Bursts[0].Peak = *burst
	spec.Bursts[0].X = float64(*nx-1) / 2 * *pitch
	spec.Bursts[0].Y = float64(*ny-1) / 2 * *pitch
	spec.DecapWidth = *dcap

	rep, err := supply.Analyze(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("worst droop: %s at %s  (static IR %s + dynamic %s)\n",
		units.FormatSI(rep.WorstDroop, "V"), rep.WorstNode,
		units.FormatSI(rep.StaticIR, "V"), units.FormatSI(rep.Dynamic, "V"))
	fmt.Printf("worst ground bounce: %s\n\n", units.FormatSI(rep.WorstBounce, "V"))

	fmt.Println("droop map (VDD crossings):")
	names := make([]string, 0, len(rep.NodeDroop))
	for n := range rep.NodeDroop {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-12s %s\n", n, units.FormatSI(rep.NodeDroop[n], "V"))
	}

	if *sweep {
		widths := []float64{0, *dcap / 2, *dcap, *dcap * 2, *dcap * 4}
		droops, err := supply.DecapSweep(spec, widths)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\ndecap sweep:")
		for i, w := range widths {
			fmt.Printf("  width %-10s droop %s\n",
				units.FormatSI(w*1e-6, "m"), units.FormatSI(droops[i], "V"))
		}
	}
	if *pkgs {
		out, err := supply.PackageComparison(spec, map[string]pkgmodel.Connection{
			"flip-chip": pkgmodel.FlipChip(),
			"wire-bond": pkgmodel.WireBond(),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("\npackage comparison:")
		for _, name := range []string{"flip-chip", "wire-bond"} {
			fmt.Printf("  %-10s droop %s\n", name, units.FormatSI(out[name], "V"))
		}
	}
}

// runSynth is the production-scale demonstration: streaming assembly,
// geometric-multigrid static solve, and (optionally) the
// cached-hierarchy transient. All numbers printed are bit-deterministic
// at any worker count.
func runSynth(nodes, workers int, tran bool) {
	g, err := grid.Synthesize(grid.DefaultSynthSpec(nodes))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("synthetic grid: %d nodes, %d layers, %d pads, %d nonzeros\n",
		g.N, g.Layers(), g.Pads, g.NNZ())
	x, st, err := g.SolveMG(matrix.MGOptions{Workers: workers}, matrix.MGSolveOptions{Tol: 1e-10})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mg hierarchy: %d levels, %d -> %d unknowns, operator complexity %.2f\n",
		st.Levels, st.Unknowns, st.CoarseUnknowns, st.OperatorComplexity)
	fmt.Printf("static solve: %d PCG iterations to 1e-10\n", st.Iterations)
	fmt.Printf("worst static IR drop: %s\n", units.FormatSI(g.WorstDrop(x), "V"))
	if !tran {
		return
	}
	// A clock-gating burst: 20%% background activity, full draw after
	// 0.5 ns, watched at the grid-centre load node.
	activity := func(t float64) float64 {
		if t < 0.5e-9 {
			return 0.2
		}
		return 1.0
	}
	res, err := sim.TranGridMG(sim.GridSystem{
		G:         g.Sys,
		CDiag:     g.CDiag,
		RHS:       g.TranRHS(activity, workers),
		Coarsener: g.Coarsener,
	}, sim.GridTranOptions{
		TStop: 2e-9, TStep: 20e-12, Workers: workers,
		SaveNodes: []int{g.CenterBottomNode()},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("transient: %d steps of %s, %d repeated, %d total PCG iterations on one cached hierarchy; DC start %d iterations, fallback %t\n",
		res.Steps, units.FormatSI(20e-12, "s"), res.RepeatedSteps, res.PCGIters, res.DCIters, res.DCFallback)
	fmt.Printf("worst transient droop: %s at t=%s\n",
		units.FormatSI(g.Spec.Vdd-res.WorstV, "V"), units.FormatSI(res.WorstTime, "s"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridnoise:", err)
	os.Exit(1)
}
