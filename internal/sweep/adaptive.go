package sweep

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// Options tunes the adaptive engine. The zero value means defaults.
type Options struct {
	// Tol is the relative interpolation tolerance (0 = DefaultTol).
	// Interpolated values target |r(f) - exact(f)| <= Tol * |exact(f)|.
	Tol float64
	// MinAnchors is the initial uniformly spread anchor count (0 = 9).
	MinAnchors int
	// MaxAnchors caps the anchor solves before the engine gives up and
	// falls back to exact per-point solves (0 = len(fs)/4 clamped to
	// [2*MinAnchors, AnchorCap]).
	MaxAnchors int
}

// Result is an adaptive sweep outcome. Values holds the response at
// every requested frequency, exact where Solved is true and rational-
// interpolated elsewhere.
type Result struct {
	Values []complex128
	Solved []bool
	// Anchors counts the exact solves the fit itself requested (in a
	// fallback the remaining points are solved too, but were never
	// anchors).
	Anchors int
	// AnchorIdx lists the anchor indices in solve order, one solve
	// call after another, each call's indices ascending — diagnostics
	// for verbose CLIs and benches.
	AnchorIdx []int
	// Fallback reports that the response refused to fit (or the sweep
	// was too short to bother) and every point was solved exactly.
	Fallback bool
	// MaxCV is the final cross-validated relative error estimate the
	// fit was accepted at (0 when Fallback).
	MaxCV float64
}

// cvSafety shrinks the acceptance threshold below the user tolerance:
// the cross-validation residual is an estimate, not a bound.
const cvSafety = 0.5

// refineBatch is how many anchors one refine step asks for at most
// (see refinePicks). Two keep two sweep workers busy; the batch is a
// constant, not the worker count, so the anchors a sweep picks do not
// depend on how many workers solve them.
const refineBatch = 2

// AnchorCap is the most anchors a sweep at the default MaxAnchors
// solves before it falls back to exact solves.
const AnchorCap = 64

// Adaptive sweeps the ascending frequencies fs by solving a few anchor
// points exactly — through solve, which receives indices into fs and
// returns the exact complex response at each — and fitting a barycentric
// rational interpolant over them. The refine loop evaluates two fits
// (one trained on all anchors, one on half) everywhere, solves up to
// refineBatch new anchors in one call where they disagree most (see
// refinePicks), and accepts once the worst cross-validated relative
// residual is safely below opt.Tol. Sweeps too short to amortize the
// fit, and responses that still disagree at MaxAnchors anchors, are
// solved exactly point by point (Fallback); a batch never takes the
// anchor count past MaxAnchors.
func Adaptive(fs []float64, opt Options, solve func(idxs []int) ([]complex128, error)) (Result, error) {
	n := len(fs)
	res := Result{Values: make([]complex128, n), Solved: make([]bool, n)}
	if n == 0 {
		return res, nil
	}
	for i := 1; i < n; i++ {
		if fs[i] < fs[i-1] {
			return res, fmt.Errorf("sweep: frequencies not in ascending order")
		}
	}
	tol := opt.Tol
	if tol == 0 {
		tol = DefaultTol
	}
	if tol < 0 || math.IsNaN(tol) {
		return res, fmt.Errorf("sweep: tolerance must be > 0, got %g", opt.Tol)
	}

	// Representatives: duplicate frequencies share one solve/fit slot.
	rep := make([]int, n)
	uniq := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && fs[i] == fs[i-1] {
			rep[i] = rep[i-1]
			continue
		}
		rep[i] = i
		uniq = append(uniq, i)
	}

	minA := opt.MinAnchors
	if minA <= 0 {
		minA = 9
	}
	if minA < 3 {
		minA = 3
	}
	maxA := opt.MaxAnchors
	if maxA <= 0 {
		maxA = len(uniq) / 4
		if maxA < 2*minA {
			maxA = 2 * minA
		}
		if maxA > AnchorCap {
			maxA = AnchorCap
		}
	}

	solveAll := func() (Result, error) {
		vals, err := solve(uniq)
		if err != nil {
			return res, err
		}
		if len(vals) != len(uniq) {
			return res, fmt.Errorf("sweep: solver returned %d values for %d points", len(vals), len(uniq))
		}
		for k, i := range uniq {
			res.Values[i] = vals[k]
			res.Solved[i] = true
		}
		expand(res.Values, res.Solved, rep)
		res.Fallback = true
		return res, nil
	}
	if len(uniq) < 2*minA {
		return solveAll()
	}

	fmax := fs[n-1]
	if fmax == 0 {
		fmax = 1
	}
	zOf := func(i int) complex128 { return complex(fs[i]/fmax, 0) }

	// Initial anchors: uniform over the unique points, endpoints
	// included so the fit never extrapolates.
	solvedSet := make(map[int]bool, maxA)
	var order []int
	for k := 0; k < minA; k++ {
		i := uniq[k*(len(uniq)-1)/(minA-1)]
		if !solvedSet[i] {
			solvedSet[i] = true
			order = append(order, i)
		}
	}
	vals := make(map[int]complex128, maxA)
	doSolve := func(idxs []int) error {
		out, err := solve(idxs)
		if err != nil {
			return err
		}
		if len(out) != len(idxs) {
			return fmt.Errorf("sweep: solver returned %d values for %d points", len(out), len(idxs))
		}
		for k, i := range idxs {
			vals[i] = out[k]
		}
		return nil
	}
	if err := doSolve(order); err != nil {
		return res, err
	}

	var ft *fit
	for {
		var errs []float64
		ft, res.MaxCV, errs = assess(uniq, vals, zOf, tol)
		batch := refinePicks(uniq, vals, errs, tol*cvSafety, min(refineBatch, maxA-len(vals)))
		if res.MaxCV <= tol*cvSafety || len(batch) == 0 {
			break
		}
		if len(vals) >= maxA {
			res.Anchors = len(vals)
			res.AnchorIdx = order
			rest := make([]int, 0, len(uniq)-len(vals))
			for _, i := range uniq {
				if _, ok := vals[i]; !ok {
					rest = append(rest, i)
				}
			}
			if err := doSolve(rest); err != nil {
				return res, err
			}
			for i, v := range vals {
				res.Values[i] = v
				res.Solved[i] = true
			}
			expand(res.Values, res.Solved, rep)
			res.Fallback = true
			res.MaxCV = 0
			return res, nil
		}
		if err := doSolve(batch); err != nil {
			return res, err
		}
		order = append(order, batch...)
	}

	res.Anchors = len(vals)
	res.AnchorIdx = order
	for i, v := range vals {
		res.Values[i] = v
		res.Solved[i] = true
	}
	for _, i := range uniq {
		if !res.Solved[i] {
			res.Values[i] = ft.eval(zOf(i))
		}
	}
	expand(res.Values, res.Solved, rep)
	return res, nil
}

// assess fits the full interpolant over every solved anchor and the
// cross-validation interpolant over alternate anchors only, so the two
// fits' agreement on the held-out anchors and on the unsolved points
// measures real generalization. It returns the full fit, the worst
// cross-validated relative residual, and the two fits' relative
// disagreement at each point of uniq (0 at solved points).
func assess(uniq []int, vals map[int]complex128, zOf func(int) complex128, tol float64) (*fit, float64, []float64) {
	solved := make([]int, 0, len(vals))
	for i := range vals {
		solved = append(solved, i)
	}
	sort.Ints(solved)
	zs := make([]complex128, len(solved))
	vv := make([]complex128, len(solved))
	fscale := 0.0
	for k, i := range solved {
		zs[k], vv[k] = zOf(i), vals[i]
		if a := cmplx.Abs(vv[k]); a > fscale {
			fscale = a
		}
	}
	floor := fscale * 1e-12
	innerTol := tol * cvSafety * 0.2

	ft, _ := aaaFit(zs, vv, innerTol, 40)
	tz := make([]complex128, 0, (len(solved)+1)/2)
	tv := make([]complex128, 0, (len(solved)+1)/2)
	for k := range solved {
		if k%2 == 0 || k == len(solved)-1 {
			tz = append(tz, zs[k])
			tv = append(tv, vv[k])
		}
	}
	ft2, _ := aaaFit(tz, tv, innerTol, 40)

	maxCV := 0.0
	for k, i := range solved {
		if k%2 == 0 || k == len(solved)-1 {
			continue
		}
		if e := relErr(ft2.eval(zs[k]), vals[i], floor); e > maxCV {
			maxCV = e
		}
	}
	errs := make([]float64, len(uniq))
	for k, i := range uniq {
		if _, ok := vals[i]; ok {
			continue
		}
		z := zOf(i)
		errs[k] = relErr(ft.eval(z), ft2.eval(z), floor)
		if errs[k] > maxCV {
			maxCV = errs[k]
		}
	}
	return ft, maxCV, errs
}

// refinePicks returns the next batch of anchors in ascending order, or
// nil when no unsolved point of uniq disagrees at all. errs is assess's
// disagreement at each point of uniq; the unsolved points fall into the
// gaps between consecutive solved anchors. The first pick is the
// global worst point. Each further pick, while the batch is shorter
// than limit, is the worst point of the worst gap that disagrees by
// more than thresh and lies at least two gaps away from every gap
// already picked. An anchor in a neighbouring gap mostly fixes the
// misfit its neighbour's anchor is about to fix: allowing one took a
// 1,024-filament bus sweep from 25 to 32 anchors.
func refinePicks(uniq []int, vals map[int]complex128, errs []float64, thresh float64, limit int) []int {
	// worst[g] is the position in uniq of gap g's worst point (-1:
	// empty); gap g opens at the (g+1)-th solved anchor.
	var worst []int
	for k, i := range uniq {
		if _, ok := vals[i]; ok {
			worst = append(worst, -1)
			continue
		}
		if g := len(worst) - 1; worst[g] < 0 || errs[k] > errs[worst[g]] {
			worst[g] = k
		}
	}
	pick := func(floor float64, picked []int) int {
		best := -1
		for g, k := range worst {
			if k < 0 || errs[k] <= floor || (best >= 0 && errs[k] <= errs[worst[best]]) {
				continue
			}
			near := false
			for _, p := range picked {
				near = near || (g-p < 2 && p-g < 2)
			}
			if !near {
				best = g
			}
		}
		return best
	}
	first := pick(0, nil)
	if first < 0 {
		return nil
	}
	picked := []int{first}
	for len(picked) < limit {
		g := pick(thresh, picked)
		if g < 0 {
			break
		}
		picked = append(picked, g)
	}
	batch := make([]int, len(picked))
	for j, g := range picked {
		batch[j] = uniq[worst[g]]
	}
	sort.Ints(batch)
	return batch
}

func relErr(got, want complex128, floor float64) float64 {
	den := cmplx.Abs(want)
	if den < floor {
		den = floor
	}
	if den == 0 {
		return 0
	}
	e := cmplx.Abs(got-want) / den
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}

// expand copies representative values onto duplicate-frequency slots.
func expand(values []complex128, solved []bool, rep []int) {
	for i, r := range rep {
		if r != i {
			values[i] = values[r]
			solved[i] = solved[r]
		}
	}
}
