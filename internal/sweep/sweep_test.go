package sweep

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func logGrid(f0, f1 float64, n int) []float64 {
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = f0 * math.Pow(f1/f0, float64(i)/float64(n-1))
	}
	return fs
}

func linGrid(f0, f1 float64, n int) []float64 {
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = f0 + (f1-f0)*float64(i)/float64(n-1)
	}
	return fs
}

// exactSolver adapts a closed-form response to the batch-solve
// signature and counts the solves it performs.
type exactSolver struct {
	fs    []float64
	f     func(float64) complex128
	calls int
	mu    sync.Mutex
}

func (s *exactSolver) solve(idxs []int) ([]complex128, error) {
	s.mu.Lock()
	s.calls += len(idxs)
	s.mu.Unlock()
	out := make([]complex128, len(idxs))
	for k, i := range idxs {
		out[k] = s.f(s.fs[i])
	}
	return out, nil
}

// rlResponse is the physical shape of the extraction paths: a smooth
// skin-effect-style R(f) + jωL(f) impedance (low-order rational in jω).
func rlResponse(f float64) complex128 {
	w := 2 * math.Pi * f
	s := complex(0, w)
	// Two-branch ladder: R1 + sL1 in parallel with R2 + sL2 — the
	// classic skin-effect equivalent circuit.
	z1 := complex(1.0, 0) + s*3e-9
	z2 := complex(8.0, 0) + s*0.5e-9
	return z1 * z2 / (z1 + z2)
}

func TestAdaptiveMatchesExactSmooth(t *testing.T) {
	for _, grid := range [][]float64{
		logGrid(1e3, 1e9, 400),
		linGrid(1e6, 5e8, 300),
	} {
		sv := &exactSolver{fs: grid, f: rlResponse}
		res, err := Adaptive(grid, Options{Tol: 1e-8}, sv.solve)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback {
			t.Fatalf("smooth rational response fell back to exact solves")
		}
		if res.Anchors >= len(grid)/4 {
			t.Fatalf("adaptive used %d anchors for %d points — no win", res.Anchors, len(grid))
		}
		if sv.calls != res.Anchors {
			t.Fatalf("solver saw %d solves, result claims %d anchors", sv.calls, res.Anchors)
		}
		interp := 0
		for i, f := range grid {
			want := rlResponse(f)
			if e := relErr(res.Values[i], want, cmplx.Abs(want)*1e-12); e > 1e-7 {
				t.Fatalf("point %d (f=%g): interp error %.3g (solved=%v)", i, f, e, res.Solved[i])
			}
			if !res.Solved[i] {
				interp++
			}
		}
		if interp == 0 {
			t.Fatal("no interpolated points")
		}
	}
}

// TestAdaptiveResonanceFallback caps the anchor budget below what a
// high-Q resonance needs at a tight tolerance, forcing the exact-solve
// fallback; every returned point must then be an exact solve.
func TestAdaptiveResonanceFallback(t *testing.T) {
	// Series RLC resonance with a skin-effect sqrt(f) resistance: the
	// sqrt makes the response non-rational, so at 1e-10 tolerance it
	// needs far more anchors than the budget below allows.
	zres := func(f float64) complex128 {
		w := 2 * math.Pi * f
		s := complex(0, w)
		r := complex(0.1*(1+math.Sqrt(f/1e6)), 0)
		return r + s*1e-6 + 1/(s*1e-11)
	}
	grid := logGrid(1e6, 1e9, 500)
	sv := &exactSolver{fs: grid, f: zres}
	res, err := Adaptive(grid, Options{Tol: 1e-10, MinAnchors: 4, MaxAnchors: 9}, sv.solve)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatalf("expected fallback, got %d anchors (maxCV %.3g)", res.Anchors, res.MaxCV)
	}
	for i, f := range grid {
		if !res.Solved[i] {
			t.Fatalf("fallback left point %d unsolved", i)
		}
		if res.Values[i] != zres(f) {
			t.Fatalf("fallback value %d is not the exact solve", i)
		}
	}
	if sv.calls != len(grid) {
		t.Fatalf("fallback solved %d of %d points", sv.calls, len(grid))
	}
}

// A genuine resonance fits fine when the anchor budget is sane: RLC
// impedances are themselves rational, the bread and butter of AAA.
func TestAdaptiveResonanceFits(t *testing.T) {
	zres := func(f float64) complex128 {
		w := 2 * math.Pi * f
		s := complex(0, w)
		return complex(5, 0) + s*1e-6 + 1/(s*1e-11)
	}
	grid := logGrid(1e6, 1e8, 600)
	sv := &exactSolver{fs: grid, f: zres}
	res, err := Adaptive(grid, Options{Tol: 1e-8}, sv.solve)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatal("rational resonance should fit without fallback")
	}
	for i, f := range grid {
		want := zres(f)
		if e := relErr(res.Values[i], want, cmplx.Abs(want)*1e-12); e > 1e-7 {
			t.Fatalf("point %d (f=%g): error %.3g", i, f, e)
		}
	}
}

func TestAdaptiveShortSweepSolvesAll(t *testing.T) {
	grid := logGrid(1e3, 1e6, 7)
	sv := &exactSolver{fs: grid, f: rlResponse}
	res, err := Adaptive(grid, Options{}, sv.solve)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback || sv.calls != len(grid) {
		t.Fatalf("short sweep should solve all points exactly (fallback=%v calls=%d)", res.Fallback, sv.calls)
	}
}

func TestAdaptiveDuplicatesAndErrors(t *testing.T) {
	grid := append(logGrid(1e3, 1e9, 200), 1e9)
	grid[50] = grid[49] // duplicate mid-sweep
	sortAscending(grid)
	sv := &exactSolver{fs: grid, f: rlResponse}
	res, err := Adaptive(grid, Options{Tol: 1e-8}, sv.solve)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] == grid[i-1] {
			if res.Values[i] != res.Values[i-1] || res.Solved[i] != res.Solved[i-1] {
				t.Fatalf("duplicate frequency %d diverged from its twin", i)
			}
		}
	}

	if _, err := Adaptive([]float64{2, 1, 3}, Options{}, sv.solve); err == nil {
		t.Fatal("unsorted frequencies accepted")
	}
	if _, err := Adaptive(logGrid(1, 10, 100), Options{Tol: math.NaN()}, sv.solve); err == nil {
		t.Fatal("NaN tolerance accepted")
	}
	wantErr := fmt.Errorf("solver exploded")
	_, err = Adaptive(logGrid(1, 10, 100), Options{}, func([]int) ([]complex128, error) {
		return nil, wantErr
	})
	if err == nil {
		t.Fatal("solver error swallowed")
	}

	res, err = Adaptive(nil, Options{}, sv.solve)
	if err != nil || len(res.Values) != 0 {
		t.Fatalf("empty sweep: %v %v", res, err)
	}
}

// TestAdaptiveParallelSolver races the batch callback across
// goroutines the way fasthenry's sweep workers do.
func TestAdaptiveParallelSolver(t *testing.T) {
	grid := logGrid(1e3, 1e9, 512)
	solve := func(idxs []int) ([]complex128, error) {
		out := make([]complex128, len(idxs))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(idxs); k += 4 {
					out[k] = rlResponse(grid[idxs[k]])
				}
			}(w)
		}
		wg.Wait()
		return out, nil
	}
	res, err := Adaptive(grid, Options{Tol: 1e-8}, solve)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range grid {
		want := rlResponse(f)
		if e := relErr(res.Values[i], want, cmplx.Abs(want)*1e-12); e > 1e-7 {
			t.Fatalf("point %d: error %.3g", i, e)
		}
	}
}

// TestAdaptiveRandomRational fits randomized stable rational responses
// on randomized grids — the property the wiring layers rely on.
func TestAdaptiveRandomRational(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		// Random stable pole-residue response: poles well off the jω
		// axis (damped), spread across the sweep decades.
		np := 2 + rng.Intn(4)
		poles := make([]complex128, np)
		resid := make([]complex128, np)
		for p := range poles {
			wp := math.Pow(10, 4+5*rng.Float64()) // 1e4..1e9 rad/s
			poles[p] = complex(-wp*(0.3+rng.Float64()), wp*(rng.Float64()-0.5))
			resid[p] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(wp, 0)
		}
		d := complex(1+rng.Float64(), 0)
		zf := func(f float64) complex128 {
			s := complex(0, 2*math.Pi*f)
			v := d
			for p := range poles {
				v += resid[p] / (s - poles[p])
			}
			return v
		}
		var grid []float64
		n := 150 + rng.Intn(400)
		f0 := math.Pow(10, 2+3*rng.Float64())
		f1 := f0 * math.Pow(10, 1+3*rng.Float64())
		if rng.Intn(2) == 0 {
			grid = logGrid(f0, f1, n)
		} else {
			grid = linGrid(f0, f1, n)
		}
		tol := 1e-8
		sv := &exactSolver{fs: grid, f: zf}
		res, err := Adaptive(grid, Options{Tol: tol}, sv.solve)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback {
			// Permitted (correct, just slow) — but values must be exact.
			for i, f := range grid {
				if res.Values[i] != zf(f) {
					t.Fatalf("trial %d: fallback value %d not exact", trial, i)
				}
			}
			continue
		}
		for i, f := range grid {
			want := zf(f)
			if e := relErr(res.Values[i], want, cmplx.Abs(want)*1e-10); e > 10*tol {
				t.Fatalf("trial %d point %d (f=%g): error %.3g anchors=%d maxCV=%.3g",
					trial, i, f, e, res.Anchors, res.MaxCV)
			}
		}
	}
}

func TestModeParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"", ModeAuto}, {"auto", ModeAuto}, {"exact", ModeExact}, {"adaptive", ModeAdaptive}} {
		m, err := ParseMode(tc.in)
		if err != nil || m != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, m, err)
		}
		if tc.in != "" && m.String() != tc.in {
			t.Fatalf("Mode round-trip %q -> %q", tc.in, m.String())
		}
	}
	if _, err := ParseMode("fancy"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if ModeExact.Adapt(1000) || !ModeAdaptive.Adapt(2) {
		t.Fatal("fixed modes wrong")
	}
	if ModeAuto.Adapt(AutoThreshold-1) || !ModeAuto.Adapt(AutoThreshold) {
		t.Fatal("auto threshold wrong")
	}
}

func sortAscending(fs []float64) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// TestAdaptiveRefineBatches records every solve call of the refine loop
// with the stub solver and checks the batch rule against the fits'
// disagreement recomputed from the anchors solved before the call:
// each refine call asks for at most refineBatch points, one of them the
// global worst; a second lies at least two gaps between solved anchors
// away from the first, is the worst point of the worst such gap, and
// that gap disagrees by more than tol*cvSafety. The anchor count never
// passes MaxAnchors, a fallback solves every remaining point in one
// call, and AnchorIdx is the anchor calls concatenated.
func TestAdaptiveRefineBatches(t *testing.T) {
	skin := func(f float64) complex128 { // non-rational: never fits at 1e-10
		s := complex(0, 2*math.Pi*f)
		return complex(0.1*(1+math.Sqrt(f/1e6)), 0) + s*1e-6 + 1/(s*1e-11)
	}
	for _, tc := range []struct {
		name     string
		f        func(float64) complex128
		grid     []float64
		opt      Options
		fallback bool
	}{
		{"rl", rlResponse, logGrid(1e3, 1e9, 400), Options{Tol: 1e-12, MaxAnchors: 64}, false},
		{"skin-loose", skin, logGrid(1e6, 1e9, 500), Options{Tol: 1e-4, MaxAnchors: 64}, false},
		{"skin", skin, logGrid(1e6, 1e9, 500), Options{Tol: 1e-10, MinAnchors: 4, MaxAnchors: 9}, true},
		{"skin-long", skin, logGrid(1e6, 1e9, 500), Options{Tol: 1e-8, MaxAnchors: 40}, true},
	} {
		n := len(tc.grid)
		uniq := make([]int, n)
		for i := range uniq {
			uniq[i] = i
		}
		zOf := func(i int) complex128 { return complex(tc.grid[i]/tc.grid[n-1], 0) }
		vals := map[int]complex128{}
		var calls [][]int
		pairs := 0
		solve := func(idxs []int) ([]complex128, error) {
			calls = append(calls, append([]int(nil), idxs...))
			if len(calls) > 1 && len(vals) < tc.opt.MaxAnchors { // a refine call, not the fallback
				checkBatch(t, tc.name, uniq, vals, zOf, tc.opt, idxs)
				if len(idxs) == 2 {
					pairs++
				}
			}
			out := make([]complex128, len(idxs))
			for k, i := range idxs {
				out[k] = tc.f(tc.grid[i])
				vals[i] = out[k]
			}
			return out, nil
		}
		res, err := Adaptive(tc.grid, tc.opt, solve)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback != tc.fallback {
			t.Fatalf("%s: fallback %v, want %v (%d anchors, calls %v)", tc.name, res.Fallback, tc.fallback, res.Anchors, calls)
		}
		anchorCalls := calls
		if res.Fallback {
			last := calls[len(calls)-1]
			if len(last) != n-res.Anchors || len(vals) != n {
				t.Fatalf("%s: fallback call solved %d points, %d of %d solved in all", tc.name, len(last), len(vals), n)
			}
			anchorCalls = calls[:len(calls)-1]
		}
		var concat []int
		for _, c := range anchorCalls {
			concat = append(concat, c...)
		}
		if !slices.Equal(concat, res.AnchorIdx) || res.Anchors != len(concat) {
			t.Fatalf("%s: AnchorIdx %v (%d anchors) is not the anchor calls %v", tc.name, res.AnchorIdx, res.Anchors, anchorCalls)
		}
		if res.Anchors > tc.opt.MaxAnchors {
			t.Fatalf("%s: %d anchors past MaxAnchors %d", tc.name, res.Anchors, tc.opt.MaxAnchors)
		}
		if pairs == 0 {
			t.Fatalf("%s: no refine call asked for two anchors", tc.name)
		}
	}
}

// checkBatch checks one refine call's batch against the fits over the
// anchors in vals (see TestAdaptiveRefineBatches).
func checkBatch(t *testing.T, name string, uniq []int, vals map[int]complex128, zOf func(int) complex128, opt Options, batch []int) {
	t.Helper()
	_, _, errs := assess(uniq, vals, zOf, opt.Tol)
	gapOf := func(i int) int { // gap g opens at the (g+1)-th solved anchor
		g := -1
		for j := range vals {
			if j < i {
				g++
			}
		}
		return g
	}
	argmax, gapWorst := -1, map[int]int{}
	for k, i := range uniq {
		if _, ok := vals[i]; ok {
			continue
		}
		if argmax < 0 || errs[k] > errs[argmax] {
			argmax = k
		}
		if w, ok := gapWorst[gapOf(i)]; !ok || errs[k] > errs[w] {
			gapWorst[gapOf(i)] = k
		}
	}
	if len(batch) == 0 || len(batch) > refineBatch || !slices.IsSorted(batch) || !slices.Contains(batch, uniq[argmax]) {
		t.Fatalf("%s: batch %v: want at most %d ascending points including the global worst %d",
			name, batch, refineBatch, uniq[argmax])
	}
	g0 := gapOf(uniq[argmax])
	thresh := opt.Tol * cvSafety
	second := -1 // the worst gap two or more gaps from g0 over thresh
	for g, k := range gapWorst {
		if (g-g0 >= 2 || g0-g >= 2) && errs[k] > thresh && (second < 0 || errs[k] > errs[gapWorst[second]] ||
			errs[k] == errs[gapWorst[second]] && g < second) {
			second = g
		}
	}
	room := len(vals)+2 <= opt.MaxAnchors
	switch {
	case len(batch) == 2:
		other := batch[0]
		if other == uniq[argmax] {
			other = batch[1]
		}
		if g := gapOf(other); g-g0 < 2 && g0-g < 2 {
			t.Fatalf("%s: batch %v: gaps %d and %d are not two gaps apart", name, batch, g0, g)
		}
		if second < 0 || other != uniq[gapWorst[second]] {
			t.Fatalf("%s: batch %v: second point is not the worst point of the worst far gap over %g", name, batch, thresh)
		}
		if !room {
			t.Fatalf("%s: batch %v takes %d anchors past MaxAnchors %d", name, batch, len(vals)+len(batch), opt.MaxAnchors)
		}
	case room && second >= 0:
		t.Fatalf("%s: batch %v leaves out the worst far gap's point %d", name, batch, uniq[gapWorst[second]])
	}
}
