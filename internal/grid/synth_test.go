package grid

import (
	"math"
	"strings"
	"testing"

	"inductance101/internal/matrix"
)

func synthMaxDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestSynthesizeShape(t *testing.T) {
	spec := DefaultSynthSpec(2000)
	g, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.N < 2000 || g.N > 3000 {
		t.Errorf("target 2000 nodes, got %d", g.N)
	}
	if g.Pads == 0 || g.BottomN == 0 {
		t.Errorf("degenerate grid: %d pads, %d bottom nodes", g.Pads, g.BottomN)
	}
	// <= 7 nonzeros per row (4 in-layer + 2 via + diagonal).
	if max := 7 * g.N; g.NNZ() > max {
		t.Errorf("NNZ %d exceeds the 7-per-row bound %d", g.NNZ(), max)
	}
	// The assembled system must be exactly symmetric.
	d := g.Sys.ToDense()
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("asymmetry at (%d,%d): %g vs %g", i, j, d.At(i, j), d.At(j, i))
			}
		}
	}
}

// TestSynthMGMatchesCholesky is the deterministic convergence suite:
// multigrid (geometric and algebraic coarsening, standalone and PCG)
// against the sparse direct Cholesky oracle on a spread of synthetic
// grids — multiple layers, missing stripes, load jitter — to 1e-8.
func TestSynthMGMatchesCholesky(t *testing.T) {
	cases := []struct {
		name string
		spec SynthSpec
	}{
		{"single-layer", SynthSpec{
			NX: 25, NY: 31, Pitch: 20e-6,
			Layers: []SynthLayer{{1, 1e-6, 0.07}},
			Vdd:    1.8, PadEvery: 8, PadR: 0.05,
			LoadCurrent: 1e-4, LoadJitter: 0.5, LoadSeed: 11,
		}},
		{"three-layer-default", DefaultSynthSpec(1500)},
		{"striped", SynthSpec{
			NX: 33, NY: 33, Pitch: 20e-6,
			Layers: []SynthLayer{{1, 1e-6, 0.07}, {2, 2e-6, 0.04}},
			ViaR:   0.8, Vdd: 1.0, PadEvery: 8, PadR: 0.05,
			LoadCurrent: 2e-4, LoadJitter: 0.3, LoadSeed: 7,
			Stripes: []SynthStripe{
				{Layer: 0, Index: 5, Vertical: true},
				{Layer: 0, Index: 11},
				{Layer: 1, Index: 3, Vertical: true},
			},
		}},
		{"larger-geometric", func() SynthSpec {
			s := DefaultSynthSpec(6000)
			s.LoadJitter, s.LoadSeed = 0.4, 3
			return s
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Synthesize(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := g.SolveChol()
			if err != nil {
				t.Fatal(err)
			}
			x, st, err := g.SolveMG(matrix.MGOptions{}, matrix.MGSolveOptions{Tol: 1e-12})
			if err != nil {
				t.Fatal(err)
			}
			if d := synthMaxDiff(x, want); d > 1e-8 {
				t.Errorf("MG-PCG off by %g from sparse Cholesky (%d nodes)", d, g.N)
			}
			if st.Iterations == 0 || st.Iterations > 60 {
				t.Errorf("suspicious PCG iteration count %d", st.Iterations)
			}
			// Jacobi-CG closes the triangle where it is still feasible.
			xc, cst, err := g.SolveCG(matrix.PCGOptions{Tol: 1e-12})
			if err != nil {
				t.Fatal(err)
			}
			if d := synthMaxDiff(xc, want); d > 1e-7 {
				t.Errorf("Jacobi-CG off by %g from sparse Cholesky", d)
			}
			if cst.Iters <= st.Iterations {
				t.Errorf("Jacobi-CG took %d iterations, MG-PCG %d — preconditioner buys nothing", cst.Iters, st.Iterations)
			}
			if drop := g.WorstDrop(x); drop <= 0 || drop >= tc.spec.Vdd {
				t.Errorf("implausible worst drop %g", drop)
			}
		})
	}
}

// sizeRecorder wraps a coarsener and records the size of every level
// the hierarchy build coarsens.
type sizeRecorder struct {
	matrix.Coarsener
	sizes []int
}

func (r *sizeRecorder) Aggregates(level, n int) []int {
	r.sizes = append(r.sizes, n)
	return r.Coarsener.Aggregates(level, n)
}

// TestSynthGeometricCoarsening pins the hierarchy shape the geometric
// coarsener gives all the way down to the coarse size: every
// coarsening step shrinks its level at least 3x, operator complexity
// stays at most 1.8, and the solve converges.
func TestSynthGeometricCoarsening(t *testing.T) {
	for _, nodes := range []int{9000, 100000} {
		g, err := Synthesize(DefaultSynthSpec(nodes))
		if err != nil {
			t.Fatal(err)
		}
		rec := &sizeRecorder{Coarsener: g.Coarsener()}
		mg, err := matrix.NewMG(g.Sys, matrix.MGOptions{Coarsener: rec})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := mg.SolvePCG(g.B, matrix.MGSolveOptions{Tol: 1e-10}); err != nil {
			t.Fatal(err)
		}
		st := mg.Stats()
		sizes := append(rec.sizes, st.CoarseUnknowns)
		if st.Levels < 3 || len(sizes) != st.Levels {
			t.Errorf("%d nodes: level sizes %v over %d levels, want a geometric hierarchy of at least 3", nodes, sizes, st.Levels)
		}
		for l := 1; l < len(sizes); l++ {
			if sizes[l-1] < 3*sizes[l] {
				t.Errorf("%d nodes: level %d -> %d shrinks %d -> %d, less than 3x", nodes, l-1, l, sizes[l-1], sizes[l])
			}
		}
		if st.OperatorComplexity > 1.8 {
			t.Errorf("%d nodes: operator complexity %.2f above 1.8", nodes, st.OperatorComplexity)
		}
	}
}

// TestSynthSingularIslandRejected pins the clear-error contract: a
// stripe that cuts nodes off from every pad must fail at Synthesize
// time, before any solver runs.
func TestSynthSingularIslandRejected(t *testing.T) {
	spec := SynthSpec{
		NX: 10, NY: 10, Pitch: 20e-6,
		Layers: []SynthLayer{{1, 1e-6, 0.07}},
		Vdd:    1.8, PadEvery: 16, PadR: 0.05, // only pad is (0,0)
		LoadCurrent: 1e-5,
		Stripes:     []SynthStripe{{Layer: 0, Index: 5, Vertical: true}},
	}
	_, err := Synthesize(spec)
	if err == nil {
		t.Fatal("Synthesize accepted a grid with a pad-less island")
	}
	if !strings.Contains(err.Error(), "singular grid") || !strings.Contains(err.Error(), "unreachable from any pad") {
		t.Errorf("island error lacks the diagnosis: %v", err)
	}
}

// TestSynthValidation pins a sample of the spec fail-fast paths.
func TestSynthValidation(t *testing.T) {
	bad := []SynthSpec{
		{NX: 1, NY: 5, Pitch: 1e-6, Layers: []SynthLayer{{1, 1e-6, 0.07}}, Vdd: 1, PadEvery: 1, PadR: 0.05},
		{NX: 5, NY: 5, Pitch: 1e-6, Layers: []SynthLayer{{1, 1e-6, 0.07}, {3, 1e-6, 0.07}, {4, 1e-6, 0.07}}, ViaR: 1, Vdd: 1, PadEvery: 1, PadR: 0.05},
		{NX: 5, NY: 5, Pitch: 1e-6, Layers: []SynthLayer{{1, 1e-6, 0.07}}, Vdd: 1, PadEvery: 1, PadR: -1},
		{NX: 5, NY: 5, Pitch: 1e-6, Layers: []SynthLayer{{1, 1e-6, 0.07}}, Vdd: 1, PadEvery: 1, PadR: 0.05, LoadJitter: 1.5},
		{NX: 5, NY: 5, Pitch: 1e-6, Layers: []SynthLayer{{1, 1e-6, 0.07}}, Vdd: 1, PadEvery: 1, PadR: 0.05, Stripes: []SynthStripe{{Layer: 2}}},
	}
	for i, spec := range bad {
		if _, err := Synthesize(spec); err == nil {
			t.Errorf("case %d: Synthesize accepted invalid spec", i)
		}
	}
}

// TestSynthTranRHS pins the pad/load split: activity 1 reproduces the
// static B; activity 0 keeps only the pad pulls.
func TestSynthTranRHS(t *testing.T) {
	g, err := Synthesize(DefaultSynthSpec(800))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, g.N)
	g.TranRHS(func(float64) float64 { return 1 }, 2)(0, dst)
	if d := synthMaxDiff(dst, g.B); d != 0 {
		t.Errorf("activity 1 differs from static B by %g", d)
	}
	g.TranRHS(func(float64) float64 { return 0 }, 1)(0, dst)
	for i, v := range dst {
		if v < 0 {
			t.Fatalf("activity 0 left a load draw at node %d: %g", i, v)
		}
	}
}
