// Command rlsweep extracts loop R(f) and L(f) — the paper's Fig. 3(b)
// curves — either for a built-in signal-over-returns structure or for a
// layout JSON with a named port, and optionally fits the Krauter ladder
// model (Fig. 3(d)).
//
// Usage:
//
//	rlsweep [-length 2e-3] [-width 8e-6] [-pitch 20e-6] [-plane] [-planenw 8]
//	        [-fstart 1e8] [-fstop 2e10] [-points 13] [-fit]
//	        [-solver auto|dense|iterative|nested] [-acatol 1e-8]
//	        [-sweep exact|adaptive|auto] [-sweeptol 1e-6] [-workers 0] [-v]
//	rlsweep -layout l.json -plus s0 -minus g0 -short s1=g1 [-short a=b ...]
//
// -solver picks the branch-system solve: dense complex LU (the exact
// oracle), matrix-free GMRES over the flat ACA-compressed
// partial-inductance operator (iterative), GMRES over the nested-basis
// H² operator (nested), or auto (dense below 512 filaments, flat ACA to
// 8191, nested beyond); GMRES is preconditioned by block-Jacobi over
// the cluster diagonal. -sweep picks the sweep strategy: exact solves
// every requested frequency, adaptive solves only rational-fit anchor
// points and interpolates the rest within -sweeptol, and auto switches
// to adaptive at 64+ points; in adaptive mode the CSV carries a fourth
// interp column marking interpolated rows. -plane replaces the builtin structure's coplanar
// returns with a solid ground plane on the layer below (the paper's
// Fig. 6 microstrip); -planenw sets the plane mesh density in grid
// cells per axis (0 = the mesh default), applies equally to planes
// read from a -layout file, and is rejected when there is no plane.
// -workers caps the operator-build and sweep fan-out (0 = all CPUs).
// Operator builds and dense sweeps are bit-identical at any setting;
// iterative sweeps warm-start GMRES along each worker's chunk of
// frequencies, so their points agree across settings to the GMRES
// tolerance (interpolated points of an adaptive sweep, whose anchors
// may differ, to -sweeptol), not bit for bit.
// -v prints diagnostics to stderr: the resolved solve mode, operator
// compression stats with per-level rank histograms and near/far
// kernel-evaluation counts on the compressed paths, and per-point GMRES
// iteration counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"inductance101/internal/engine"
	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/layoutio"
	"inductance101/internal/loopmodel"
	"inductance101/internal/units"
)

type shortList [][2]string

func (s *shortList) String() string { return fmt.Sprint([][2]string(*s)) }

func (s *shortList) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want nodeA=nodeB, got %q", v)
	}
	*s = append(*s, [2]string{parts[0], parts[1]})
	return nil
}

func main() {
	var (
		length = flag.Float64("length", 2e-3, "builtin structure: wire length (m)")
		width  = flag.Float64("width", 8e-6, "builtin structure: wire width (m)")
		pitch  = flag.Float64("pitch", 20e-6, "builtin structure: signal-return pitch (m)")
		fstart = flag.Float64("fstart", 1e8, "sweep start frequency (Hz)")
		fstop  = flag.Float64("fstop", 2e10, "sweep stop frequency (Hz)")
		points = flag.Int("points", 13, "sweep points")
		fit    = flag.Bool("fit", false, "fit the two-point ladder model and report its error")
		nsec   = flag.Int("sections", 0, "with -fit: also least-squares fit an n-section ladder")
		layout = flag.String("layout", "", "layout JSON file (instead of builtin structure)")
		plus   = flag.String("plus", "", "port plus node (with -layout)")
		minus  = flag.String("minus", "", "port minus node (with -layout)")
		solver = flag.String("solver", "auto", "branch solve: dense | iterative (flat ACA) | nested (H² bases) | auto (by filament count)")
		acatol = flag.Float64("acatol", 1e-8, "far-field relative tolerance for the compressed solvers")
		swmode = flag.String("sweep", "auto", "sweep strategy: exact (solve every point) | adaptive (rational fit over anchor solves) | auto (adaptive at 64+ points)")
		swtol  = flag.Float64("sweeptol", 1e-6, "adaptive sweep relative interpolation tolerance")
		plane  = flag.Bool("plane", false, "builtin structure: return through a ground plane below instead of coplanar wires")
		planew = flag.Int("planenw", 0, "plane mesh density, grid cells per axis (0 = mesh default)")
		nwork  = flag.Int("workers", 0, "worker goroutines for operator build and sweep (0 = all CPUs)")
		verb   = flag.Bool("v", false, "print solve diagnostics to stderr (solve mode, operator stats, GMRES iterations)")
		shorts shortList
	)
	flag.Var(&shorts, "short", "short two nodes, nodeA=nodeB (repeatable; with -layout)")
	flag.Parse()

	// Enum flags are validated into the run config before any file is
	// opened or filament is built: a typo fails in milliseconds.
	cfg := engine.Config{ACATol: *acatol, Workers: *nwork, PlaneNW: *planew}
	mode, err := fasthenry.ParseSolveMode(*solver)
	if err != nil {
		fatal(err)
	}
	cfg.SolveMode = mode
	sm, err := engine.ParseSweepMode(*swmode)
	if err != nil {
		fatal(err)
	}
	cfg.SweepMode = sm
	if !(*swtol > 0) {
		fatal(fmt.Errorf("-sweeptol must be > 0, got %g", *swtol))
	}
	cfg.SweepTol = *swtol
	sess, err := engine.NewChecked(cfg)
	if err != nil {
		fatal(err)
	}

	var (
		lay  *geom.Layout
		segs []int
		port fasthenry.Port
		sh   [][2]string
	)
	if *layout != "" {
		f, err := os.Open(*layout)
		if err != nil {
			fatal(err)
		}
		lay2, err := layoutio.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		lay = lay2
		for i := range lay.Segments {
			segs = append(segs, i)
		}
		if *plus == "" || *minus == "" {
			fatal(fmt.Errorf("-layout requires -plus and -minus"))
		}
		port = fasthenry.Port{Plus: *plus, Minus: *minus}
		sh = shorts
	} else if *plane {
		lay, segs, port, sh = builtinPlane(*length, *width, *pitch)
	} else {
		lay, segs, port, sh = builtin(*length, *width, *pitch)
	}
	if *planew != 0 && len(lay.Planes) == 0 {
		fatal(fmt.Errorf("-planenw %d needs a plane to mesh: pass -plane or a -layout file with planes", *planew))
	}

	s, err := fasthenry.NewSolver(lay, segs, port, sh, *fstop, sess.SolverOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rlsweep: %d filaments\n", s.NumFilaments())
	if *verb {
		fmt.Fprintf(os.Stderr, "rlsweep: solver %s\n", s.SolveModeInUse())
	}
	pts, err := s.Sweep(fasthenry.LogSpace(*fstart, *fstop, *points))
	if err != nil {
		fatal(err)
	}
	// The adaptive engine distinguishes solved anchors from
	// interpolated rows; only then does the CSV carry the extra column,
	// so exact-mode output (goldens, downstream parsers) is unchanged.
	if cfg.SweepMode.Adapt(*points) {
		anchors := 0
		fmt.Println("freq_hz,r_ohm,l_h,interp")
		for _, p := range pts {
			interp := 0
			if p.Interp {
				interp = 1
			} else {
				anchors++
			}
			fmt.Printf("%g,%g,%g,%d\n", p.Freq, p.R, p.L, interp)
		}
		if *verb {
			fmt.Fprintf(os.Stderr, "rlsweep: adaptive sweep: %d anchors solved, %d points interpolated (tol %g)\n",
				anchors, len(pts)-anchors, *swtol)
		}
	} else {
		fmt.Println("freq_hz,r_ohm,l_h")
		for _, p := range pts {
			fmt.Printf("%g,%g,%g\n", p.Freq, p.R, p.L)
		}
	}
	if *verb {
		if m := s.SolveModeInUse(); m == fasthenry.ModeIterative || m == fasthenry.ModeNested {
			for _, line := range strings.Split(s.OperatorStats().String(), "\n") {
				fmt.Fprintln(os.Stderr, "rlsweep: "+line)
			}
			for _, p := range pts {
				if p.Interp {
					fmt.Fprintf(os.Stderr, "rlsweep: %s: interpolated\n", units.FormatSI(p.Freq, "Hz"))
					continue
				}
				fmt.Fprintf(os.Stderr, "rlsweep: %s: %d GMRES iterations\n",
					units.FormatSI(p.Freq, "Hz"), p.Iters)
			}
		}
	}

	if *fit {
		first, last := pts[0], pts[len(pts)-1]
		ld, err := loopmodel.FitTwoPoint(first.Z, first.Freq, last.Z, last.Freq)
		if err != nil {
			fatal(err)
		}
		errR, errL := ld.MaxRelErr(pts)
		fmt.Fprintf(os.Stderr, "ladder fit: R0=%s L0=%s", units.FormatSI(ld.R0, "ohm"), units.FormatSI(ld.L0, "H"))
		for _, s := range ld.Sections {
			fmt.Fprintf(os.Stderr, " | R1=%s L1=%s", units.FormatSI(s.R, "ohm"), units.FormatSI(s.L, "H"))
		}
		fmt.Fprintf(os.Stderr, "\nmax band error: R %.1f%%, L %.1f%%\n", errR*100, errL*100)
		if *nsec > 0 {
			ldN, err := loopmodel.FitSections(pts, *nsec)
			if err != nil {
				fatal(err)
			}
			eR, eL := ldN.MaxRelErr(pts)
			fmt.Fprintf(os.Stderr, "%d-section LS fit: %d sections kept, max band error R %.1f%%, L %.1f%%\n",
				*nsec, len(ldN.Sections), eR*100, eL*100)
		}
	}
}

// builtin makes the Fig. 3(a) structure: signal with two same-layer
// ground returns tied at both ends.
func builtin(length, width, pitch float64) (*geom.Layout, []int, fasthenry.Port, [][2]string) {
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	s := lay.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: length, Width: width, Net: "sig", NodeA: "s0", NodeB: "s1"})
	g1 := lay.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: -pitch,
		Length: length, Width: width, Net: "GND", NodeA: "g0", NodeB: "g1"})
	g2 := lay.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: pitch,
		Length: length, Width: width, Net: "GND", NodeA: "h0", NodeB: "h1"})
	return lay, []int{s, g1, g2},
		fasthenry.Port{Plus: "s0", Minus: "g0"},
		[][2]string{{"s1", "g1"}, {"g1", "h1"}, {"g0", "h0"}}
}

// builtinPlane makes the Fig. 6 microstrip variant of the builtin
// structure: the same signal wire returning through a solid ground
// plane on the layer below (lowered to a filament grid by
// internal/mesh) instead of coplanar wires. The plane's x-edge rails
// tie it into the loop: the far rail to the signal's far end, the near
// rail to the port minus.
func builtinPlane(length, width, pitch float64) (*geom.Layout, []int, fasthenry.Port, [][2]string) {
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 0.9e-6, SheetRho: 0.025, HBelow: 1.0e-6},
		{Name: "M6", Index: 1, Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	s := lay.AddSegment(geom.Segment{Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: length, Width: width, Net: "sig", NodeA: "s0", NodeB: "s1"})
	lay.AddPlane(geom.Plane{
		Layer: 0, X0: 0, Y0: -2 * pitch, X1: length, Y1: 2 * pitch,
		Net: "GND", NodeLeft: "g0", NodeRight: "g1",
	})
	return lay, []int{s},
		fasthenry.Port{Plus: "s0", Minus: "g0"},
		[][2]string{{"s1", "g1"}}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlsweep:", err)
	os.Exit(1)
}
