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

// referenceStepping is the grid transient solved at every step: the
// companion hierarchy of A = G + C/h, a DC start on it through
// MGSolveOptions.A (the cases here converge within TranGridMG's DC-start
// budget, so no fallback), then a warm-started SolvePCG per step. It
// records what TranGridMG records, so the two can be compared bit for
// bit.
func referenceStepping(t *testing.T, sys sim.GridSystem, opt sim.GridTranOptions) *sim.GridTranResult {
	t.Helper()
	h := opt.TStep
	n := sys.G.Rows()
	a, err := sys.G.AddDiagScaled(1/h, sys.CDiag)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := matrix.NewMG(a, matrix.MGOptions{Workers: opt.Workers, Coarsener: sys.Coarsener()})
	if err != nil {
		t.Fatal(err)
	}
	res := &sim.GridTranResult{Saved: make([][]float64, len(opt.SaveNodes))}
	b := make([]float64, n)
	v := opt.V0
	if v == nil {
		sys.RHS(0, b)
		var st matrix.MGStats
		v, st, err = mg.SolvePCG(b, matrix.MGSolveOptions{Tol: 1e-8, MaxIter: 40, Workers: opt.Workers, A: sys.G})
		if err != nil {
			t.Fatalf("reference DC start: %v", err)
		}
		res.DCIters = st.Iterations
	}
	record := func(tm float64) {
		mv, mi := math.Inf(1), -1
		for i, x := range v {
			if x < mv {
				mv, mi = x, i
			}
		}
		res.Times = append(res.Times, tm)
		res.MinV = append(res.MinV, mv)
		if mi >= 0 && (len(res.MinV) == 1 || mv < res.WorstV) {
			res.WorstV, res.WorstNode, res.WorstTime = mv, mi, tm
		}
		for k, node := range opt.SaveNodes {
			res.Saved[k] = append(res.Saved[k], v[node])
		}
	}
	record(0)
	rhs := make([]float64, n)
	res.Steps = int(math.Round(opt.TStop / h))
	for k := 1; k <= res.Steps; k++ {
		tm := float64(k) * h
		sys.RHS(tm, b)
		for i, c := range sys.CDiag {
			rhs[i] = c/h*v[i] + b[i]
		}
		x, st, err := mg.SolvePCG(rhs, matrix.MGSolveOptions{Tol: 1e-8, MaxIter: 200, X0: v, Workers: opt.Workers})
		if err != nil {
			t.Fatalf("reference step %d: %v", k, err)
		}
		res.PCGIters += st.Iterations
		v = x
		record(tm)
	}
	res.V = v
	return res
}

// sameFloats reports whether a and b hold the same float64 bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTranGridMGRepeatedStepsPin pins that skipping repeated steps
// changes no bit of the transient: on the burst, on an excitation that
// changes every step (no repeats), on an all-zero one from V0 = 0 and
// on one whose first rhs is zero from a nonzero V0 (a step of zero
// iterations that is no repeat), TranGridMG matches referenceStepping
// and RepeatedSteps has its exact count. CI runs it at 1 and 2 CPUs.
func TestTranGridMGRepeatedStepsPin(t *testing.T) {
	g, burst := synthTranCase(t, 1200)
	ramp := burst
	ramp.RHS = g.TranRHS(func(tm float64) float64 { return 0.1 + tm/1e-9 }, 2)
	zero := burst
	zero.RHS = func(_ float64, dst []float64) {
		for i := range dst {
			dst[i] = 0
		}
	}
	// From a flat V0, b = -(C/h)·V0 zeroes the first step's rhs, so
	// PCG returns x = 0, not its warm start, without iterating; the
	// second step must still solve.
	h := 0.05e-9
	flat := make([]float64, g.N)
	for i := range flat {
		flat[i] = g.Spec.Vdd
	}
	cancel := burst
	cancel.RHS = func(_ float64, dst []float64) {
		for i, c := range burst.CDiag {
			dst[i] = -(c / h * flat[i])
		}
	}
	save := []int{g.CenterBottomNode(), 0}
	cases := []struct {
		name     string
		sys      sim.GridSystem
		v0       []float64
		repeated int
	}{
		{"burst", burst, nil, 17},
		{"ramp", ramp, nil, 0},
		{"zero", zero, make([]float64, g.N), 19},
		{"cancel", cancel, flat, 13},
	}
	for _, tc := range cases {
		opt := sim.GridTranOptions{TStop: 1e-9, TStep: h, V0: tc.v0, SaveNodes: save}
		got, err := sim.TranGridMG(tc.sys, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := referenceStepping(t, tc.sys, opt)
		if got.RepeatedSteps != tc.repeated {
			t.Errorf("%s: %d repeated steps, want %d", tc.name, got.RepeatedSteps, tc.repeated)
		}
		if !sameFloats(got.V, want.V) || !sameFloats(got.MinV, want.MinV) || !sameFloats(got.Times, want.Times) {
			t.Errorf("%s: V, MinV or Times differ from solving every step", tc.name)
		}
		for k := range save {
			if !sameFloats(got.Saved[k], want.Saved[k]) {
				t.Errorf("%s: saved trace %d differs from solving every step", tc.name, k)
			}
		}
		if math.Float64bits(got.WorstV) != math.Float64bits(want.WorstV) || got.WorstNode != want.WorstNode || got.WorstTime != want.WorstTime {
			t.Errorf("%s: worst droop %g @ node %d, t=%g; want %g @ node %d, t=%g", tc.name,
				got.WorstV, got.WorstNode, got.WorstTime, want.WorstV, want.WorstNode, want.WorstTime)
		}
		if got.PCGIters != want.PCGIters || got.DCIters != want.DCIters || got.DCFallback {
			t.Errorf("%s: %d step and %d DC-start PCG iterations (fallback %v); want %d and %d", tc.name,
				got.PCGIters, got.DCIters, got.DCFallback, want.PCGIters, want.DCIters)
		}
	}
}
