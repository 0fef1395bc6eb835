package repro

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"inductance101/internal/extract"
	"inductance101/internal/grid"
	"inductance101/internal/matrix"
	"inductance101/internal/pkgmodel"
	"inductance101/internal/sim"
)

// benchBest returns the fastest of reps runs of fn.
func benchBest(reps int, fn func()) float64 {
	b := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if s := time.Since(start).Seconds(); s < b {
			b = s
		}
	}
	return b
}

// synthRow is one per-size scaling entry of BENCH_sparse.json: the
// solver menu on a streaming-assembled synthetic grid, with the
// iteration counts and tolerances behind every timing (a preconditioner
// regression shows in the counts even when the wall clock is noisy).
type synthRow struct {
	Nodes int `json:"nodes"`
	NNZ   int `json:"nnz"`
	// Sparse direct Cholesky (oracle): setup+solve seconds and factor
	// fill. Omitted (zero) past its feasibility ceiling.
	CholSec  float64 `json:"chol_sec,omitempty"`
	CholFill int     `json:"chol_fill_nnz,omitempty"`
	// Jacobi-preconditioned CG: seconds, iterations, tolerance. Omitted
	// past its ceiling.
	CGSec   float64 `json:"cg_sec,omitempty"`
	CGIters int     `json:"cg_iters,omitempty"`
	CGTol   float64 `json:"cg_tol,omitempty"`
	// Multigrid-PCG: setup (hierarchy build) and solve seconds,
	// iterations, tolerance, hierarchy shape.
	MGSetupSec float64 `json:"mg_setup_sec"`
	MGSolveSec float64 `json:"mg_solve_sec"`
	MGIters    int     `json:"mg_iters"`
	MGTol      float64 `json:"mg_tol"`
	MGLevels   int     `json:"mg_levels"`
	MGOpCx     float64 `json:"mg_operator_complexity"`
	// MaxDiffMGChol is the worst per-node voltage disagreement between
	// the MG and direct solutions where both ran.
	MaxDiffMGChol float64 `json:"max_diff_mg_chol,omitempty"`
}

const (
	benchCholCeiling = 200_000 // sparse direct feasibility (fill)
	benchCGCeiling   = 150_000 // Jacobi-CG feasibility (iterations)
	benchMGTol       = 1e-10
	// benchTranBudgetSec is the wall-clock budget the 1e5-node transient
	// must fit (generous for a single-core CI box; the point is that the
	// run completes in minutes, not hours).
	benchTranBudgetSec = 300.0
)

// benchSynthSizes spans gridnoise scale (2.3k) to a million-plus
// unknowns — the regime the multigrid path exists for.
var benchSynthSizes = []int{2300, 10_000, 100_000, 1_000_000}

func benchSynthRow(t *testing.T, target int) synthRow {
	g, err := grid.Synthesize(grid.DefaultSynthSpec(target))
	if err != nil {
		t.Fatal(err)
	}
	row := synthRow{Nodes: g.N, NNZ: g.NNZ()}

	var mg *matrix.MG
	row.MGSetupSec = benchBest(1, func() {
		mg, err = matrix.NewMG(g.Sys, matrix.MGOptions{Coarsener: g.Coarsener()})
		if err != nil {
			t.Fatal(err)
		}
	})
	var xmg []float64
	var st matrix.MGStats
	row.MGSolveSec = benchBest(1, func() {
		xmg, st, err = mg.SolvePCG(g.B, matrix.MGSolveOptions{Tol: benchMGTol})
		if err != nil {
			t.Fatal(err)
		}
	})
	row.MGIters, row.MGTol = st.Iterations, benchMGTol
	row.MGLevels, row.MGOpCx = st.Levels, st.OperatorComplexity

	if g.N <= benchCholCeiling {
		var xch []float64
		var fill int
		row.CholSec = benchBest(1, func() {
			xch, fill, err = g.SolveChol()
			if err != nil {
				t.Fatal(err)
			}
		})
		row.CholFill = fill
		for i := range xch {
			if d := math.Abs(xmg[i] - xch[i]); d > row.MaxDiffMGChol {
				row.MaxDiffMGChol = d
			}
		}
		if row.MaxDiffMGChol > 1e-8 {
			t.Fatalf("%d nodes: MG disagrees with sparse Cholesky by %g (> 1e-8)",
				g.N, row.MaxDiffMGChol)
		}
	}
	if g.N <= benchCGCeiling {
		var cst matrix.IterResult
		row.CGSec = benchBest(1, func() {
			_, cst, err = g.SolveCG(matrix.PCGOptions{Tol: benchMGTol})
			if err != nil {
				t.Fatal(err)
			}
		})
		row.CGIters, row.CGTol = cst.Iters, benchMGTol
	}
	t.Logf("synth %8d nodes: mg %.3fs+%.3fs (%d iters, %d levels, opcx %.2f), chol %.3fs (fill %d), cg %.3fs (%d iters)",
		row.Nodes, row.MGSetupSec, row.MGSolveSec, row.MGIters, row.MGLevels, row.MGOpCx,
		row.CholSec, row.CholFill, row.CGSec, row.CGIters)
	return row
}

// TestBenchSparseSnapshot times the static power-grid solves — the
// dense oracle against gridnoise's sparse Cholesky, then sparse direct,
// CG and multigrid on synthetic grids up to a million unknowns — and
// writes BENCH_sparse.json. Like the kernel snapshot it
// only runs when BENCH_SPARSE=1; regenerate with
// scripts/bench_sparse.sh.
func TestBenchSparseSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SPARSE") == "" {
		t.Skip("set BENCH_SPARSE=1 to write BENCH_sparse.json")
	}

	// Part 1: the PEEC-netlist grid (2.3k unknowns) — dense LU against
	// the sparse Cholesky static-IR solve gridnoise runs. A 24x24 interleaved VDD/GND mesh; ModeRC keeps the element
	// count proportional to the wire count, and a tight mutual window
	// skips the (unused) far-field inductance work during setup.
	spec := grid.DefaultSpec()
	spec.NX, spec.NY = 24, 24
	m, err := grid.BuildPowerGrid(grid.StandardLayers(), spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := extract.DefaultOptions()
	opt.MutualWindow = spec.Pitch
	par := extract.ExtractSegments(m.Layout, nil, opt)
	p, err := grid.BuildPEECNetlist(m.Layout, par, grid.PEECOptions{Mode: grid.ModeRC})
	if err != nil {
		t.Fatal(err)
	}
	n := p.Netlist
	if err := m.AttachPackage(n, pkgmodel.FlipChip(), 1.8); err != nil {
		t.Fatal(err)
	}
	if n.Size() < 2000 {
		t.Fatalf("grid too small for the benchmark: %d unknowns", n.Size())
	}
	t.Logf("grid: %d nodes, %d MNA unknowns", n.NumNodes(), n.Size())

	var denseDrop, cholDrop float64
	denseIR := benchBest(1, func() {
		denseDrop, err = grid.IRDropDC(m, n, 1.8)
		if err != nil {
			t.Fatal(err)
		}
	})
	cholIR := benchBest(3, func() {
		cholDrop, err = grid.IRDropDCSparseChol(m, n, 1.8)
		if err != nil {
			t.Fatal(err)
		}
	})
	if d := math.Abs(denseDrop - cholDrop); d > 1e-9*math.Max(denseDrop, 1) {
		t.Fatalf("sparse Cholesky IR drop %g disagrees with dense %g", cholDrop, denseDrop)
	}
	t.Logf("static IR: dense %.3fs, sparse chol %.5fs (%.0fx)",
		denseIR, cholIR, denseIR/cholIR)
	if denseIR < 5*cholIR {
		t.Fatalf("sparse Cholesky speedup %.1fx below the 5x requirement", denseIR/cholIR)
	}

	// Part 2: the scaling curve — streaming-assembled synthetic grids
	// from 2.3k to 1M+ unknowns through the direct/CG/MG menu.
	rows := make([]synthRow, 0, len(benchSynthSizes))
	for _, target := range benchSynthSizes {
		rows = append(rows, benchSynthRow(t, target))
	}
	// The reason multigrid exists: at 1e5+ nodes it must beat the sparse
	// direct factorization on setup+solve.
	for _, row := range rows {
		if row.Nodes >= 100_000 && row.CholSec > 0 {
			mgTotal := row.MGSetupSec + row.MGSolveSec
			if mgTotal >= row.CholSec {
				t.Fatalf("%d nodes: MG setup+solve %.3fs not faster than sparse Cholesky %.3fs",
					row.Nodes, mgTotal, row.CholSec)
			}
		}
	}
	if last := rows[len(rows)-1]; last.Nodes < 1_000_000 {
		t.Fatalf("largest scaling row has %d unknowns, want >= 1e6", last.Nodes)
	}

	// Part 3: the 1e5-node transient under a wall-clock budget — the
	// cached-hierarchy stepper must make production-scale electromigration
	// /droop windows a minutes-scale run.
	gT, err := grid.Synthesize(grid.DefaultSynthSpec(100_000))
	if err != nil {
		t.Fatal(err)
	}
	activity := func(tm float64) float64 {
		if tm < 0.5e-9 {
			return 0.2
		}
		return 1.0
	}
	var tranRes *sim.GridTranResult
	tranWall := benchBest(1, func() {
		tranRes, err = sim.TranGridMG(sim.GridSystem{
			G: gT.Sys, CDiag: gT.CDiag,
			RHS:       gT.TranRHS(activity, 0),
			Coarsener: gT.Coarsener,
		}, sim.GridTranOptions{TStop: 2e-9, TStep: 20e-12})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("synth tran: %d nodes, %d steps, %d PCG iters, %.2fs wall",
		gT.N, tranRes.Steps, tranRes.PCGIters, tranWall)
	if tranWall > benchTranBudgetSec {
		t.Fatalf("1e5-node transient took %.1fs, over the %.0fs budget", tranWall, benchTranBudgetSec)
	}

	out, err := json.MarshalIndent(struct {
		Note string `json:"note"`
		PEEC struct {
			Unknowns    int     `json:"mna_unknowns"`
			Nodes       int     `json:"grid_nodes"`
			DenseIRSec  float64 `json:"static_ir_dense_sec"`
			CholIRSec   float64 `json:"static_ir_sparse_chol_sec"`
			CholSpeedup float64 `json:"static_ir_chol_speedup"`
		} `json:"peec_grid"`
		Scaling []synthRow `json:"synth_scaling"`
		Tran    struct {
			Nodes     int     `json:"nodes"`
			Steps     int     `json:"steps"`
			PCGIters  int     `json:"pcg_iters_total"`
			WallSec   float64 `json:"wall_sec"`
			BudgetSec float64 `json:"budget_sec"`
		} `json:"synth_tran_1e5"`
	}{
		Note: "static power-grid solves: dense oracle vs gridnoise's sparse Cholesky static IR, then sparse direct, CG and multigrid on synthetic grids to 1e6+ unknowns; regenerate with scripts/bench_sparse.sh",
		PEEC: struct {
			Unknowns    int     `json:"mna_unknowns"`
			Nodes       int     `json:"grid_nodes"`
			DenseIRSec  float64 `json:"static_ir_dense_sec"`
			CholIRSec   float64 `json:"static_ir_sparse_chol_sec"`
			CholSpeedup float64 `json:"static_ir_chol_speedup"`
		}{
			Unknowns: n.Size(), Nodes: n.NumNodes(),
			DenseIRSec: denseIR, CholIRSec: cholIR,
			CholSpeedup: denseIR / cholIR,
		},
		Scaling: rows,
		Tran: struct {
			Nodes     int     `json:"nodes"`
			Steps     int     `json:"steps"`
			PCGIters  int     `json:"pcg_iters_total"`
			WallSec   float64 `json:"wall_sec"`
			BudgetSec float64 `json:"budget_sec"`
		}{
			Nodes: gT.N, Steps: tranRes.Steps, PCGIters: tranRes.PCGIters,
			WallSec: tranWall, BudgetSec: benchTranBudgetSec,
		},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sparse.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_sparse.json")
}
