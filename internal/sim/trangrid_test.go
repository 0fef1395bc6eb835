package sim_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"inductance101/internal/grid"
	"inductance101/internal/matrix"
	"inductance101/internal/sim"
)

func synthTranCase(t *testing.T, nodes int) (*grid.SynthGrid, sim.GridSystem) {
	t.Helper()
	spec := grid.DefaultSynthSpec(nodes)
	spec.LoadJitter, spec.LoadSeed = 0.4, 5
	g, err := grid.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A clock-gating burst: idle draw, then full activity after 0.2 ns.
	activity := func(tm float64) float64 {
		if tm < 0.2e-9 {
			return 0.1
		}
		return 1.0
	}
	return g, sim.GridSystem{
		G:         g.Sys,
		CDiag:     g.CDiag,
		RHS:       g.TranRHS(activity, 2),
		Coarsener: g.Coarsener,
	}
}

// choleskyStepping is the transient oracle: it factors G and the
// backward-Euler companion A = G + C/h once with the sparse direct
// Cholesky, solves the DC start and steps explicitly. It returns the
// final state.
func choleskyStepping(t *testing.T, sys sim.GridSystem, h, tstop float64) []float64 {
	t.Helper()
	a, err := sys.G.AddDiagScaled(1/h, sys.CDiag)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := matrix.FactorSparseCholesky(a.AsSymmetricCSC())
	if err != nil {
		t.Fatal(err)
	}
	chG, err := matrix.FactorSparseCholesky(sys.G.AsSymmetricCSC())
	if err != nil {
		t.Fatal(err)
	}
	n := sys.G.Rows()
	b := make([]float64, n)
	sys.RHS(0, b)
	v, err := chG.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for k := 1; k <= int(math.Round(tstop/h)); k++ {
		sys.RHS(float64(k)*h, b)
		for i := range rhs {
			rhs[i] = sys.CDiag[i]/h*v[i] + b[i]
		}
		if v, err = ch.Solve(rhs); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// maxAbsDiff returns max |a[i] - b[i]|.
func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestTranGridMGMatchesCholeskyStepping checks the cached-hierarchy MG
// transient against the Cholesky stepping oracle.
func TestTranGridMGMatchesCholeskyStepping(t *testing.T) {
	g, sys := synthTranCase(t, 1200)
	h, tstop := 0.05e-9, 1e-9
	res, err := sim.TranGridMG(sys, sim.GridTranOptions{
		TStop: tstop, TStep: h, Tol: 1e-12, Workers: 2,
		SaveNodes: []int{g.CenterBottomNode()},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := choleskyStepping(t, sys, h, tstop)

	steps := int(math.Round(tstop / h))
	if res.Steps != steps || len(res.Times) != steps+1 {
		t.Fatalf("step bookkeeping: %d steps, %d times (want %d, %d)", res.Steps, len(res.Times), steps, steps+1)
	}
	if worst := maxAbsDiff(res.V, v); worst > 1e-8 {
		t.Errorf("final state off by %g from direct-factor stepping", worst)
	}
	if res.DCIters <= 0 || res.DCFallback {
		t.Errorf("DC start: %d iterations, fallback %v; want a converged start on the stepping hierarchy", res.DCIters, res.DCFallback)
	}
	// Warm starts legitimately converge in zero iterations on the quiet
	// plateau, so the total is well below steps — but never zero.
	if res.PCGIters <= 0 {
		t.Errorf("suspicious total PCG count %d for %d steps", res.PCGIters, steps)
	}
	if len(res.Saved) != 1 || len(res.Saved[0]) != steps+1 {
		t.Fatalf("saved trace shape %dx%d", len(res.Saved), len(res.Saved[0]))
	}
	// The activity burst must deepen the droop: worst voltage after the
	// burst is below the idle-phase minimum, and WorstV agrees with MinV.
	minAll := math.Inf(1)
	for _, mv := range res.MinV {
		if mv < minAll {
			minAll = mv
		}
	}
	if res.WorstV != minAll {
		t.Errorf("WorstV %g disagrees with min(MinV) %g", res.WorstV, minAll)
	}
	if res.WorstTime < 0.2e-9 {
		t.Errorf("worst droop at t=%g, before the activity burst", res.WorstTime)
	}
	if res.WorstV >= res.MinV[0] {
		t.Errorf("burst did not deepen the droop: worst %g vs initial min %g", res.WorstV, res.MinV[0])
	}
}

// TestTranGridMGStiffDCStartFallsBack scales the decap by 10⁵, so the
// grid's RC constants dwarf the step and the stepping hierarchy of
// G + C/h preconditions G poorly: the DC start must fall back to G's
// own hierarchy, say so, and still match the Cholesky oracle.
func TestTranGridMGStiffDCStartFallsBack(t *testing.T) {
	_, sys := synthTranCase(t, 1200)
	stiff := make([]float64, len(sys.CDiag))
	for i, c := range sys.CDiag {
		stiff[i] = 1e5 * c
	}
	sys.CDiag = stiff
	h, tstop := 0.05e-9, 1e-9
	res, err := sim.TranGridMG(sys, sim.GridTranOptions{TStop: tstop, TStep: h, Tol: 1e-12, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DCFallback {
		t.Errorf("DC start converged in %d iterations on the stepping hierarchy; want the fallback", res.DCIters)
	}
	if worst := maxAbsDiff(res.V, choleskyStepping(t, sys, h, tstop)); worst > 1e-8 {
		t.Errorf("final state off by %g from direct-factor stepping", worst)
	}
}

// TestTranGridMGBitIdentityPin pins the transient's final state (an
// FNV-64a hash of its float64 bits), the step PCG total and the
// DC-start iterations. CI runs it at 1 and 2 CPUs, so the default
// worker count must not change them.
func TestTranGridMGBitIdentityPin(t *testing.T) {
	_, sys := synthTranCase(t, 1200)
	res, err := sim.TranGridMG(sys, sim.GridTranOptions{TStop: 1e-9, TStep: 0.05e-9})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.V {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	const wantHash, wantPCG, wantDC = 0x6ab276a06deb6977, 6, 11
	if got := h.Sum64(); got != wantHash || res.PCGIters != wantPCG || res.DCIters != wantDC || res.DCFallback {
		t.Errorf("hash %#016x, %d step PCG iterations, %d DC-start iterations (fallback %v); want %#016x, %d, %d (no fallback)",
			got, res.PCGIters, res.DCIters, res.DCFallback, uint64(wantHash), wantPCG, wantDC)
	}
}

// TestTranGridMGWorkerDeterminism pins bit-identical transient results
// across worker counts — the domain decomposition must not change the
// arithmetic.
func TestTranGridMGWorkerDeterminism(t *testing.T) {
	_, sys := synthTranCase(t, 700)
	run := func(workers int) *sim.GridTranResult {
		res, err := sim.TranGridMG(sys, sim.GridTranOptions{
			TStop: 0.4e-9, TStep: 0.05e-9, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	for _, w := range []int{2, 5} {
		rw := run(w)
		if rw.PCGIters != r1.PCGIters {
			t.Errorf("workers=%d: PCG total %d != serial %d", w, rw.PCGIters, r1.PCGIters)
		}
		for i := range rw.V {
			if rw.V[i] != r1.V[i] {
				t.Fatalf("workers=%d: V[%d] differs from serial (not bit-identical)", w, i)
			}
		}
		if rw.WorstV != r1.WorstV || rw.WorstNode != r1.WorstNode {
			t.Errorf("workers=%d: worst droop (%g @ %d) != serial (%g @ %d)",
				w, rw.WorstV, rw.WorstNode, r1.WorstV, r1.WorstNode)
		}
	}
}

// TestTranGridMGValidation pins the fail-fast paths.
func TestTranGridMGValidation(t *testing.T) {
	_, sys := synthTranCase(t, 400)
	n := sys.G.Rows()
	bad := []sim.GridTranOptions{
		{TStop: 0, TStep: 1e-12},
		{TStop: 1e-9, TStep: -1},
		{TStop: 1e-9, TStep: 2e-9},
		{TStop: 1e-9, TStep: 1e-10, V0: make([]float64, n+1)},
		{TStop: 1e-9, TStep: 1e-10, SaveNodes: []int{n}},
	}
	for i, opt := range bad {
		if _, err := sim.TranGridMG(sys, opt); err == nil {
			t.Errorf("case %d: sim.TranGridMG accepted invalid options %+v", i, opt)
		}
	}
	if _, err := sim.TranGridMG(sim.GridSystem{}, sim.GridTranOptions{TStop: 1, TStep: 1}); err == nil {
		t.Error("sim.TranGridMG accepted an empty system")
	}
}

// TestTranGridMGV0SkipsDCInit pins that a caller-provided initial state
// is used verbatim at t=0.
func TestTranGridMGV0SkipsDCInit(t *testing.T) {
	g, sys := synthTranCase(t, 400)
	v0 := make([]float64, g.N)
	for i := range v0 {
		v0[i] = g.Spec.Vdd
	}
	res, err := sim.TranGridMG(sys, sim.GridTranOptions{
		TStop: 0.2e-9, TStep: 0.1e-9, V0: v0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinV[0] != g.Spec.Vdd {
		t.Errorf("t=0 min voltage %g, want the flat V0 %g", res.MinV[0], g.Spec.Vdd)
	}
}
