// Command inductx extracts PEEC parasitics from a layout JSON document
// (see internal/layoutio for the schema): per-segment resistance, the
// partial self/mutual inductance matrix, and ground/coupling
// capacitances.
//
// Usage:
//
//	inductx [-l matrix|summary] [-c] [-window 0]
//	        [-solver auto|dense|iterative|nested] [-acatol 1e-8]
//	        [-workers 0] [-v] layout.json
//	inductx -sample          # print a sample layout document
//
// -solver selects the partial-inductance representation: dense builds
// the full matrix; iterative builds the hierarchically compressed
// (near-exact + ACA low-rank) operator and reads every reported value
// through it; nested builds the O(N log N) nested-basis (H²) operator
// with shared per-cluster interpolation bases; auto uses dense below
// 256 segments, flat ACA to 4095, nested beyond. -workers caps the
// operator-build fan-out (0 = all CPUs; results are bit-identical at
// any setting). The compressed paths require an unlimited -window
// (windowing and hierarchical compression are competing sparsification
// strategies) and cannot export -spice decks, which need the dense
// matrix.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"inductance101/internal/circuit"
	"inductance101/internal/engine"
	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
	"inductance101/internal/layoutio"
	"inductance101/internal/matrix"
	"inductance101/internal/units"
)

func main() {
	var (
		lMode   = flag.String("l", "summary", "inductance output: matrix | summary | none")
		caps    = flag.Bool("c", true, "extract capacitances")
		window  = flag.Float64("window", 0, "mutual inductance window in metres (0 = unlimited)")
		sample  = flag.Bool("sample", false, "print a sample layout JSON and exit")
		spice   = flag.String("spice", "", "also write the stamped PEEC netlist as a SPICE deck to this file")
		solver  = flag.String("solver", "auto", "inductance representation: dense | iterative (flat ACA) | nested (H² bases) | auto (by segment count)")
		acatol  = flag.Float64("acatol", 1e-8, "far-field relative tolerance for the compressed representations")
		workers = flag.Int("workers", 0, "worker goroutines for extraction and operator build (0 = all CPUs)")
		verbose = flag.Bool("v", false, "report the compressed operators (flat ACA/H²: compression, ranks, kernel evaluations); adds nothing on the dense path, whose mutual count the extracted line already prints")
	)
	flag.Parse()

	// Every enum flag is validated before any file is opened or work is
	// done: a typo fails in milliseconds with a one-line error.
	cfg := engine.Config{ACATol: *acatol, Workers: *workers}
	switch *solver {
	case "dense", "iterative", "nested", "auto":
	default:
		fatal(fmt.Errorf("-solver must be dense, iterative, nested or auto, got %q", *solver))
	}
	switch *lMode {
	case "matrix", "summary", "none":
	default:
		fatal(fmt.Errorf("unknown -l mode %q", *lMode))
	}
	sess, err := engine.NewChecked(cfg)
	if err != nil {
		fatal(err)
	}

	if *sample {
		printSample()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: inductx [flags] layout.json   (see -h)")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	lay, err := layoutio.Read(f)
	if err != nil {
		fatal(err)
	}

	// Resolve the inductance representation. autoCompressSegments is
	// the auto-mode switch point; below it the dense matrix is cheap
	// and keeps default outputs on the exact path. Beyond
	// autoNestedSegments the flat ACA block inventory itself becomes the
	// bottleneck and auto switches to the nested-basis operator.
	const (
		autoCompressSegments = 256
		autoNestedSegments   = 4096
	)
	compressed, nested := false, false
	switch *solver {
	case "iterative":
		compressed = true
	case "nested":
		compressed, nested = true, true
	case "auto":
		compressed = len(lay.Segments) >= autoCompressSegments
		nested = len(lay.Segments) >= autoNestedSegments
	}
	if compressed && *window > 0 {
		fatal(fmt.Errorf("the compressed solvers need an unlimited -window: windowing and hierarchical compression are competing sparsifications"))
	}
	if compressed && *spice != "" {
		fatal(fmt.Errorf("-spice needs the dense inductance matrix; use -solver dense"))
	}

	opt := sess.ExtractOptions()
	if *window > 0 {
		opt.MutualWindow = *window
	}
	opt.SkipInductance = compressed
	par := extract.Extract(lay, opt)
	var op extract.LOperator
	switch {
	case nested:
		op = extract.CompressInductanceH2(lay, par.Segs, opt.GMD,
			extract.H2Options{Tol: sess.Config().ACATol, Workers: *workers})
	case compressed:
		op = extract.CompressInductance(lay, par.Segs, opt.GMD,
			extract.ACAOptions{Tol: sess.Config().ACATol, Workers: *workers})
	}
	// lAt reads partial inductances through whichever representation
	// was built; the compressed accessor reconstructs far entries from
	// their ACA factors.
	lAt := func(i, j int) float64 {
		if op != nil {
			if i == j {
				return op.Diag(i)
			}
			return 0 // off-diagonals come from EachUpper walks below
		}
		return par.L.At(i, j)
	}
	st := par.Stats()
	if op != nil {
		op.EachUpper(func(i, j int, v float64) {
			if v != 0 {
				st.NumMutual++
			}
		})
	}
	fmt.Printf("extracted %d segments: %d R, %d self L, %d mutuals, %d ground caps, %d coupling caps\n",
		len(par.Segs), st.NumR, st.NumL, st.NumMutual, st.NumCGround, st.NumCCouple)
	if *verbose && op != nil {
		fmt.Println(op.Stats().String())
	}

	fmt.Println("\nper-segment R and self L:")
	for i, si := range par.Segs {
		s := &lay.Segments[si]
		fmt.Printf("  seg%-3d %-8s %s->%s  R=%-10s Lself=%s\n",
			si, s.Net, s.NodeA, s.NodeB,
			units.FormatSI(par.R[i], "ohm"),
			units.FormatSI(lAt(i, i), "H"))
	}

	switch *lMode {
	case "matrix":
		fmt.Println("\npartial inductance matrix (H):")
		if op != nil {
			n := op.Dim()
			m := matrix.NewDense(n, n)
			for i := 0; i < n; i++ {
				m.Set(i, i, op.Diag(i))
			}
			op.EachUpper(func(i, j int, v float64) {
				m.Set(i, j, v)
				m.Set(j, i, v)
			})
			fmt.Print(m.String())
		} else {
			fmt.Print(par.L.String())
		}
	case "summary":
		n := len(par.Segs)
		worst, wi, wj, wm := 0.0, 0, 0, 0.0
		if op != nil {
			op.EachUpper(func(i, j int, v float64) {
				k := math.Abs(v) / math.Sqrt(op.Diag(i)*op.Diag(j))
				if k > worst {
					worst, wi, wj, wm = k, i, j, v
				}
			})
		} else {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					k := math.Abs(par.L.At(i, j)) / math.Sqrt(par.L.At(i, i)*par.L.At(j, j))
					if k > worst {
						worst, wi, wj, wm = k, i, j, par.L.At(i, j)
					}
				}
			}
		}
		if n > 1 {
			fmt.Printf("\nstrongest coupling: seg%d <-> seg%d, k = %.4f (M = %s)\n",
				par.Segs[wi], par.Segs[wj], worst,
				units.FormatSI(wm, "H"))
		}
	}

	if *spice != "" {
		p2, err := grid.BuildPEECNetlist(lay, par, grid.PEECOptions{Mode: grid.ModeRLC})
		if err != nil {
			fatal(err)
		}
		sf, err := os.Create(*spice)
		if err != nil {
			fatal(err)
		}
		if err := circuit.WriteSpice(sf, p2.Netlist, "inductx PEEC export of "+flag.Arg(0)); err != nil {
			sf.Close()
			fatal(err)
		}
		if err := sf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nSPICE deck written to %s\n", *spice)
	}

	if *caps {
		fmt.Println("\nground capacitance per node:")
		for _, node := range sortedKeys(par.CGround) {
			fmt.Printf("  %-12s %s\n", node, units.FormatSI(par.CGround[node], "F"))
		}
		if len(par.CCoupling) > 0 {
			fmt.Println("coupling capacitors:")
			for _, cc := range par.CCoupling {
				fmt.Printf("  %-12s %-12s %s\n", cc.NodeA, cc.NodeB, units.FormatSI(cc.C, "F"))
			}
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func printSample() {
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	lay.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 1e-3, Width: 2e-6, Net: "sig", NodeA: "s0", NodeB: "s1"})
	lay.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 4e-6,
		Length: 1e-3, Width: 2e-6, Net: "GND", NodeA: "g0", NodeB: "g1"})
	if err := layoutio.Write(os.Stdout, lay); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inductx:", err)
	os.Exit(1)
}
