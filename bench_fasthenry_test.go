package repro

import (
	"encoding/json"
	"fmt"
	"math/cmplx"
	"os"
	"runtime"
	"testing"
	"time"

	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
	"inductance101/internal/sweep"
)

// benchLoopBus builds the loop-extraction benchmark structure: a signal
// wire with nWires-1 return wires on the same layer, returns tied
// together at both ends and to the signal at the far end. One segment
// per wire; the filament count is nWires * nw * nt.
func benchLoopBus(nWires int) (*geom.Layout, []int, fasthenry.Port, [][2]string) {
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	const (
		length = 1e-3
		width  = 1e-6
		pitch  = 2e-6
	)
	var segs []int
	for w := 0; w < nWires; w++ {
		net, a, b := "GND", fmt.Sprintf("g%d_0", w), fmt.Sprintf("g%d_1", w)
		if w == 0 {
			net, a, b = "sig", "s0", "s1"
		}
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(w) * pitch,
			Length: length, Width: width, Net: net, NodeA: a, NodeB: b,
		}))
	}
	var shorts [][2]string
	for w := 2; w < nWires; w++ {
		shorts = append(shorts,
			[2]string{fmt.Sprintf("g%d_0", w-1), fmt.Sprintf("g%d_0", w)},
			[2]string{fmt.Sprintf("g%d_1", w-1), fmt.Sprintf("g%d_1", w)})
	}
	shorts = append(shorts, [2]string{"s1", "g1_1"})
	return lay, segs, fasthenry.Port{Plus: "s0", Minus: "g1_0"}, shorts
}

// benchMicrostripPlane builds the plane benchmark structure: a signal
// and its far return over a solid conductor plane. The mesh density
// rides in Options.PlaneNW (~2*nw^2 plane filaments); the geometry is
// fixed, so one structure spans every benchmark size.
func benchMicrostripPlane() (*geom.Layout, []int, fasthenry.Port, [][2]string) {
	lay := geom.NewLayout(grid.StandardLayers())
	segs := []int{
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
			Length: 1500e-6, Width: 2e-6, Net: "sig", NodeA: "s0", NodeB: "s1",
		}),
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 80e-6,
			Length: 1500e-6, Width: 2e-6, Net: "ret", NodeA: "r0", NodeB: "r1",
		}),
	}
	lay.AddPlane(geom.Plane{
		Layer: 0, X0: 0, Y0: -24e-6, X1: 1500e-6, Y1: 24e-6,
		Net: "ret", NodeLeft: "p0", NodeRight: "p1",
	})
	return lay, segs, fasthenry.Port{Plus: "s0", Minus: "r0"},
		[][2]string{{"s1", "r1"}, {"p1", "s1"}, {"p0", "r0"}}
}

// benchRow is one (size, solver mode, worker count) measurement.
type benchRow struct {
	Wires          int     `json:"wires,omitempty"`
	PlaneNW        int     `json:"plane_nw,omitempty"`
	Filaments      int     `json:"filaments"`
	Mode           string  `json:"mode"`
	Workers        int     `json:"workers"`
	SweepPoints    int     `json:"sweep_points"`
	BuildSec       float64 `json:"operator_build_sec"`
	SweepSec       float64 `json:"sweep_sec"`
	TotalSec       float64 `json:"total_sec"`
	GMRESIters     []int   `json:"gmres_iters_per_point,omitempty"`
	MaxRelErr      float64 `json:"max_rel_err_vs_dense,omitempty"`
	FarBlocks      int     `json:"far_blocks,omitempty"`
	MaxRank        int     `json:"max_rank,omitempty"`
	CompressionX   float64 `json:"storage_compression_x,omitempty"`
	KernelPerEntry float64 `json:"kernel_evals_per_dense_entry,omitempty"`
	NearEvals      int     `json:"near_kernel_evals,omitempty"`
	FarEvals       int     `json:"far_kernel_evals,omitempty"`
}

// maxRelErrPts is the worst pointwise relative impedance deviation
// between two sweeps over the same frequency grid.
func maxRelErrPts(got, ref []fasthenry.Point) float64 {
	worst := 0.0
	for i := range got {
		if d := cmplx.Abs(got[i].Z-ref[i].Z) / cmplx.Abs(ref[i].Z); d > worst {
			worst = d
		}
	}
	return worst
}

// benchAdaptiveRow is one adaptive-vs-exact sweep measurement on a
// dense frequency grid.
type benchAdaptiveRow struct {
	Wires            int     `json:"wires"`
	Filaments        int     `json:"filaments"`
	Workers          int     `json:"workers"`
	SweepPoints      int     `json:"sweep_points"`
	SweepTol         float64 `json:"sweep_tol"`
	ExactSweepSec    float64 `json:"exact_sweep_sec"`
	AdaptiveSweepSec float64 `json:"adaptive_sweep_sec"`
	SpeedupX         float64 `json:"speedup_x"`
	Anchors          int     `json:"anchors"`
	MaxRelErr        float64 `json:"max_rel_err_vs_exact"`
	ExactTotalIters  int     `json:"exact_total_iters"`
}

// TestBenchFasthenrySnapshot times the FastHenry-style loop extractor
// across solver modes (dense complex LU, flat-ACA GMRES, nested-basis
// H² GMRES) and worker counts, and writes BENCH_fasthenry.json. Where
// the dense oracle is feasible (<= 2048 filaments) every compressed
// sweep is checked against it pointwise, so the bench doubles as a
// large-scale equivalence test; at 16k filaments flat ACA and nested
// cross-check each other and nested must win on wall clock; the
// largest size (~102k filaments) runs nested-only — the regime the
// O(N log N) operator exists for. Only runs when BENCH_FASTHENRY=1;
// regenerate with scripts/bench_fasthenry.sh.
func TestBenchFasthenrySnapshot(t *testing.T) {
	if os.Getenv("BENCH_FASTHENRY") == "" {
		t.Skip("set BENCH_FASTHENRY=1 to write BENCH_fasthenry.json")
	}

	cpus := runtime.NumCPU()
	workerCols := []int{1}
	if cpus > 1 {
		workerCols = append(workerCols, cpus)
	}
	opts := fasthenry.Options{NW: 4, NT: 2} // 8 filaments per wire

	sizes := []struct {
		wires  int
		dense  bool                  // dense oracle feasible
		modes  []fasthenry.SolveMode // compressed modes to measure
		points int
		fstop  float64
	}{
		{36, true, []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested}, 6, 2e10},
		{98, true, []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested}, 6, 2e10},
		{256, true, []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested}, 6, 2e10},
		{2048, false, []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested}, 3, 2e10},
		{12800, false, []fasthenry.SolveMode{fasthenry.ModeNested}, 2, 1e9},
	}

	var rows []benchRow
	for _, sz := range sizes {
		lay, segs, port, shorts := benchLoopBus(sz.wires)
		freqs := fasthenry.LogSpace(1e8, sz.fstop, sz.points)
		mk := func(mode fasthenry.SolveMode, w int) *fasthenry.Solver {
			o := opts
			o.Mode = mode
			o.Workers = w
			s, err := fasthenry.NewSolver(lay, segs, port, shorts, sz.fstop, o)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		run := func(mode fasthenry.SolveMode, w int) (benchRow, []fasthenry.Point) {
			s := mk(mode, w)
			t0 := time.Now()
			st := s.OperatorStats() // forces the lazy operator build
			buildSec := time.Since(t0).Seconds()
			t1 := time.Now()
			pts, err := s.Sweep(freqs)
			if err != nil {
				t.Fatalf("%v sweep at %d wires: %v", mode, sz.wires, err)
			}
			sweepSec := time.Since(t1).Seconds()
			row := benchRow{
				Wires: sz.wires, Filaments: s.NumFilaments(),
				Mode: mode.String(), Workers: w, SweepPoints: len(freqs),
				BuildSec: buildSec, SweepSec: sweepSec, TotalSec: buildSec + sweepSec,
			}
			if mode != fasthenry.ModeDense {
				row.FarBlocks = st.FarBlocks
				row.MaxRank = st.MaxRank
				row.CompressionX = st.CompressionRatio()
				row.KernelPerEntry = float64(st.KernelEvals) / float64(st.DenseKernelEntries)
				row.NearEvals = st.NearKernelEvals
				row.FarEvals = st.FarKernelEvals
				for _, p := range pts {
					row.GMRESIters = append(row.GMRESIters, p.Iters)
				}
			}
			return row, pts
		}
		maxRelErr := func(got, ref []fasthenry.Point) float64 {
			worst := 0.0
			for i := range got {
				if d := cmplx.Abs(got[i].Z-ref[i].Z) / cmplx.Abs(ref[i].Z); d > worst {
					worst = d
				}
			}
			return worst
		}

		// perMode[mode] holds the workers=1 sweep for cross-checks (the
		// operators are bit-identical at any worker count).
		perMode := map[string][]fasthenry.Point{}
		for _, w := range workerCols {
			var densePts []fasthenry.Point
			if sz.dense {
				row, pts := run(fasthenry.ModeDense, w)
				densePts = pts
				rows = append(rows, row)
				perMode[row.Mode] = pts
				t.Logf("%5d wires %6d fils dense    w=%d: %.2fs", sz.wires, row.Filaments, w, row.TotalSec)
			}
			for _, mode := range sz.modes {
				row, pts := run(mode, w)
				if sz.dense {
					row.MaxRelErr = maxRelErr(pts, densePts)
					if row.MaxRelErr > 1e-6 {
						t.Errorf("%d wires %s w=%d: deviates from dense by %.3g (tolerance 1e-6)",
							sz.wires, row.Mode, w, row.MaxRelErr)
					}
				}
				rows = append(rows, row)
				perMode[row.Mode] = pts
				t.Logf("%5d wires %6d fils %-9s w=%d: build %.2fs sweep %.2fs iters %v err %.2g",
					sz.wires, row.Filaments, row.Mode, w, row.BuildSec, row.SweepSec,
					row.GMRESIters, row.MaxRelErr)
			}
		}
		// At the largest common size the two compressed operators
		// cross-check each other (no dense oracle) and the nested build
		// must pay for itself end to end.
		if !sz.dense && len(sz.modes) == 2 {
			flat, nested := perMode[fasthenry.ModeIterative.String()], perMode[fasthenry.ModeNested.String()]
			if d := maxRelErr(nested, flat); d > 1e-6 {
				t.Errorf("%d wires: nested and flat ACA disagree by %.3g (tolerance 1e-6)", sz.wires, d)
			}
			var flatTotal, nestedTotal float64
			for _, r := range rows {
				if r.Wires == sz.wires && r.Workers == workerCols[len(workerCols)-1] {
					switch r.Mode {
					case fasthenry.ModeIterative.String():
						flatTotal = r.TotalSec
					case fasthenry.ModeNested.String():
						nestedTotal = r.TotalSec
					}
				}
			}
			if nestedTotal >= flatTotal {
				t.Errorf("%d wires: nested total %.2fs not below flat ACA total %.2fs",
					sz.wires, nestedTotal, flatTotal)
			}
		}
	}

	// Adaptive-sweep benchmark: the 2048-filament case swept at 200
	// points/decade over 3 decades. Exact iterative mode solves all 601
	// points with warm-started GMRES; adaptive mode solves a few dozen
	// rational-fit anchors the same way and interpolates the rest.
	adaptiveRows := func() []benchAdaptiveRow {
		const wires = 256
		w := workerCols[len(workerCols)-1]
		lay, segs, port, shorts := benchLoopBus(wires)
		freqs := fasthenry.LogSpace(1e8, 1e11, 601) // 200 pts/decade over 3 decades
		const tol = 1e-7                            // fit tolerance well under the 1e-6 deviation budget
		runSweep := func(sm sweep.Mode) ([]fasthenry.Point, float64) {
			o := opts
			o.Mode = fasthenry.ModeIterative
			o.Workers = w
			o.SweepMode = sm
			o.SweepTol = tol
			s, err := fasthenry.NewSolver(lay, segs, port, shorts, 1e11, o)
			if err != nil {
				t.Fatal(err)
			}
			s.OperatorStats() // exclude the lazy operator build from sweep time
			t0 := time.Now()
			pts, err := s.Sweep(freqs)
			if err != nil {
				t.Fatalf("adaptive bench sweep (%v): %v", sm, err)
			}
			return pts, time.Since(t0).Seconds()
		}

		exactPts, exactSec := runSweep(sweep.ModeExact)
		adPts, adSec := runSweep(sweep.ModeAdaptive)

		exactIters, anchors := 0, 0
		for _, p := range exactPts {
			exactIters += p.Iters
		}
		for _, p := range adPts {
			if !p.Interp {
				anchors++
			}
		}
		row := benchAdaptiveRow{
			Wires: wires, Filaments: wires * opts.NW * opts.NT, Workers: w,
			SweepPoints: len(freqs), SweepTol: tol,
			ExactSweepSec: exactSec, AdaptiveSweepSec: adSec,
			SpeedupX:        exactSec / adSec,
			Anchors:         anchors,
			MaxRelErr:       maxRelErrPts(adPts, exactPts),
			ExactTotalIters: exactIters,
		}
		t.Logf("adaptive %d fils %d pts w=%d: exact %.2fs, adaptive %.2fs (%.1fx), %d anchors, err %.2g",
			row.Filaments, row.SweepPoints, w, exactSec, adSec, row.SpeedupX,
			anchors, row.MaxRelErr)

		if row.SpeedupX < 5 {
			t.Errorf("adaptive sweep only %.2fx faster than exact iterative (acceptance floor 5x)", row.SpeedupX)
		}
		if row.MaxRelErr > 1e-6 {
			t.Errorf("adaptive sweep deviates from exact by %.3g (tolerance 1e-6)", row.MaxRelErr)
		}
		return []benchAdaptiveRow{row}
	}()

	// Microstrip-over-plane benchmark: the shared mesh lowers the plane
	// into ~2*nw^2 grid filaments and ~nw^2 nodes, and all three solve
	// paths consume the same filament set. The dense oracle still builds
	// the full nodal admittance (one LU solve per reduced node); the
	// iterative paths drive the port with one augmented GMRES per
	// point, so their cost follows filaments and iterations, not nodes.
	// The dense oracle's O(nf^3) LU caps the sizes here; flat and nested
	// also cross-check each other at every size.
	planeRows := func() []benchRow {
		lay, segs, port, shorts := benchMicrostripPlane()
		w := workerCols[len(workerCols)-1]
		sizes := []struct {
			planeNW int
			modes   []fasthenry.SolveMode
			points  int
		}{
			{16, []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested}, 3},
			{24, []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested}, 3},
			{32, []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested}, 2},
		}
		var out []benchRow
		for _, sz := range sizes {
			freqs := fasthenry.LogSpace(1e8, 2e10, sz.points)
			run := func(mode fasthenry.SolveMode) (benchRow, []fasthenry.Point) {
				s, err := fasthenry.NewSolver(lay, segs, port, shorts, 2e10, fasthenry.Options{
					MaxPerSide: 2, PlaneNW: sz.planeNW, Mode: mode, Workers: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				s.OperatorStats()
				buildSec := time.Since(t0).Seconds()
				t1 := time.Now()
				pts, err := s.Sweep(freqs)
				if err != nil {
					t.Fatalf("plane %v sweep at nw=%d: %v", mode, sz.planeNW, err)
				}
				sweepSec := time.Since(t1).Seconds()
				return benchRow{
					PlaneNW: sz.planeNW, Filaments: s.NumFilaments(),
					Mode: mode.String(), Workers: w, SweepPoints: len(freqs),
					BuildSec: buildSec, SweepSec: sweepSec, TotalSec: buildSec + sweepSec,
				}, pts
			}
			perMode := map[string][]fasthenry.Point{}
			denseRow, densePts := run(fasthenry.ModeDense)
			out = append(out, denseRow)
			t.Logf("plane nw=%3d %6d fils dense    : %.2fs", sz.planeNW, denseRow.Filaments, denseRow.TotalSec)
			for _, mode := range sz.modes {
				row, pts := run(mode)
				row.MaxRelErr = maxRelErrPts(pts, densePts)
				if row.MaxRelErr > 1e-6 {
					t.Errorf("plane nw=%d %s: deviates from dense by %.3g (tolerance 1e-6)",
						sz.planeNW, row.Mode, row.MaxRelErr)
				}
				perMode[row.Mode] = pts
				out = append(out, row)
				t.Logf("plane nw=%3d %6d fils %-9s: build %.2fs sweep %.2fs err %.2g",
					sz.planeNW, row.Filaments, row.Mode, row.BuildSec, row.SweepSec, row.MaxRelErr)
			}
			flat, nested := perMode[fasthenry.ModeIterative.String()], perMode[fasthenry.ModeNested.String()]
			if d := maxRelErrPts(nested, flat); d > 1e-6 {
				t.Errorf("plane nw=%d: nested and flat ACA disagree by %.3g (tolerance 1e-6)", sz.planeNW, d)
			}
		}
		return out
	}()

	out, err := json.MarshalIndent(struct {
		Note     string             `json:"note"`
		CPUs     int                `json:"cpus"`
		Rows     []benchRow         `json:"loop_extraction"`
		Plane    []benchRow         `json:"microstrip_plane"`
		Adaptive []benchAdaptiveRow `json:"adaptive_sweep"`
	}{
		Note:     "FastHenry loop-extraction sweep: dense complex LU vs flat-ACA GMRES vs nested-basis (H2) GMRES, per worker column (columns coincide when cpus=1); compressed modes are checked against the dense oracle where feasible; microstrip_plane runs the same three paths over a conductor plane lowered through the shared filament mesh (internal/mesh) at rising grid density; adaptive_sweep compares the rational-interpolation sweep (warm-started GMRES anchors) against exact per-point iterative solves on a dense grid; regenerate with scripts/bench_fasthenry.sh",
		CPUs:     cpus,
		Rows:     rows,
		Plane:    planeRows,
		Adaptive: adaptiveRows,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fasthenry.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_fasthenry.json")
}
