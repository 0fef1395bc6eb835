package fasthenry

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"inductance101/internal/sweep"
	"inductance101/internal/units"
)

// SweepParallel runs the frequency sweep with one goroutine per CPU:
// each frequency's complex solve is independent, which makes extraction
// sweeps (the dominant cost of the loop-model flow) scale with cores.
// Results come back in ascending frequency order.
//
// The two exact solve paths schedule differently. The dense path hands
// out single frequencies with a lock-free atomic counter (every point
// costs the same LU, so fine-grained stealing balances best). The
// iterative path splits the ascending frequencies into one contiguous
// chunk per worker: within a chunk each point warm-starts GMRES from
// the previous point's branch currents and node voltages, which trims
// iteration counts because R(f), L(f) vary smoothly. All workers share
// the one immutable compressed operator and Schur plan; per-point state
// (preconditioner, Krylov basis) is worker-local. The dense path's
// results are bit-identical at any worker count. The iterative path's
// are not: the worker count moves the chunk boundaries, so a point may
// start GMRES from a different warm vector, and the results agree only
// to the GMRES tolerance.
//
// Under Options.SweepMode adaptive (or auto at sweep.AutoThreshold
// requested points) only a few adaptively chosen anchor frequencies are
// solved — chunked and warm-started exactly as above — and the
// remaining points are filled by a cross-validated rational
// interpolant (Point.Interp marks them). Anchor bits that differ may
// steer the iterative path's refine loop to other anchors, so its
// interpolated points agree across worker counts only to the sweep
// tolerance.
func (s *Solver) SweepParallel(freqs []float64, workers int) ([]Point, error) {
	return s.SweepParallelCtx(context.Background(), freqs, workers)
}

// SweepParallelCtx is SweepParallel with cooperative cancellation: the
// sweep stops between solves once ctx is done and returns ctx's error.
func (s *Solver) SweepParallelCtx(ctx context.Context, freqs []float64, workers int) ([]Point, error) {
	fs := append([]float64(nil), freqs...)
	sort.Float64s(fs)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fs) {
		workers = len(fs)
	}
	if s.sweepMode.Adapt(len(fs)) {
		pts, _, err := s.sweepAdaptive(ctx, fs, workers)
		return pts, err
	}
	out := make([]Point, len(fs))
	errs := make([]error, len(fs))
	if s.iterativeMode() {
		s.compressedOp()
		sweepIterativeRun(ctx, fs, workers, out, errs, s.impedanceIterative)
	} else {
		s.sweepDense(ctx, fs, workers, out, errs)
	}
	return out, firstSweepError(fs, errs)
}

func firstSweepError(fs []float64, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fasthenry: at %s: %w", units.FormatSI(fs[i], "Hz"), err)
		}
	}
	return nil
}

// sweepDense claims single frequencies with handOut; results are
// identical to a serial dense sweep.
func (s *Solver) sweepDense(ctx context.Context, fs []float64, workers int, out []Point, errs []error) {
	handOut(len(fs), workers, func(i int) bool {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return false
		}
		z, err := s.impedanceDense(fs[i])
		if err != nil {
			errs[i] = err
			return true
		}
		r, l := RL(z, fs[i])
		out[i] = Point{Freq: fs[i], Z: z, R: r, L: l}
		return true
	})
}

// handOut runs fn on every index of [0, n) over up to workers
// goroutines that claim single indices with a lock-free atomic counter,
// which balances best when the indices cost about the same (every dense
// point is the same LU). A goroutine stops claiming once fn returns
// false.
func handOut(n, workers int, fn func(i int) bool) {
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n || !fn(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// chunkRanges splits [0, n) into one contiguous range per worker (the
// iterative sweep's warm-start chunks). Workers beyond n get no range.
func chunkRanges(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	if workers <= 0 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// sweepIterativeRun is the chunked warm-started executor of the
// iterative sweep: each worker owns one contiguous ascending-frequency
// chunk and a private warm-start vector (nil until the first solve
// fills it with its [i; v] solution) that carries across the chunk.
// solve is the per-point solver — injected so tests can drive the
// scheduling with failures and order probes the real physics cannot
// produce on demand. On a failed point the worker's warm vector is
// dropped and the chunk continues cold.
func sweepIterativeRun(ctx context.Context, fs []float64, workers int, out []Point, errs []error,
	solve func(f float64, warm *[]complex128) (complex128, int, error)) {
	var wg sync.WaitGroup
	for _, r := range chunkRanges(len(fs), workers) {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var warm []complex128
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				z, iters, err := solve(fs[i], &warm)
				if err != nil {
					errs[i] = err
					warm = nil // restart cold
					continue
				}
				r, l := RL(z, fs[i])
				out[i] = Point{Freq: fs[i], Z: z, R: r, L: l, Iters: iters}
			}
		}(r[0], r[1])
	}
	wg.Wait()
}

// sweepAdaptive runs the anchor-and-fit engine: on the iterative paths
// anchors are solved in ascending contiguous chunks across workers with
// warm starts, on the dense path handed out point by point (handOut).
// Interpolated points carry Interp=true and no iteration count. It
// also returns the anchor indices in solve order.
func (s *Solver) sweepAdaptive(ctx context.Context, fs []float64, workers int) ([]Point, []int, error) {
	iters := make([]int, len(fs))
	errs := make([]error, len(fs))
	var batch func(idxs []int) ([]complex128, error)

	if s.iterativeMode() {
		s.compressedOp()
		// Per-worker warm vectors, persistent across anchor batches: the
		// refine loop mostly adds one anchor at a time, and those solves
		// keep worker 0's warm vector.
		warms := make([][]complex128, workers)
		batch = func(idxs []int) ([]complex128, error) {
			vals := make([]complex128, len(idxs))
			var wg sync.WaitGroup
			var failed atomic.Bool
			for w, r := range chunkRanges(len(idxs), workers) {
				wg.Add(1)
				go func(warm *[]complex128, lo, hi int) {
					defer wg.Done()
					for k := lo; k < hi; k++ {
						i := idxs[k]
						if err := ctx.Err(); err != nil {
							errs[i] = err
							failed.Store(true)
							return
						}
						z, it, err := s.impedanceIterative(fs[i], warm)
						if err != nil {
							errs[i] = err
							failed.Store(true)
							*warm = nil
							return
						}
						vals[k] = z
						iters[i] = it
					}
				}(&warms[w], r[0], r[1])
			}
			wg.Wait()
			if failed.Load() {
				return nil, firstSweepError(fs, errs)
			}
			return vals, nil
		}
	} else {
		batch = func(idxs []int) ([]complex128, error) {
			vals := make([]complex128, len(idxs))
			var failed atomic.Bool
			handOut(len(idxs), workers, func(k int) bool {
				i := idxs[k]
				err := ctx.Err()
				if err == nil {
					vals[k], err = s.impedanceDense(fs[i])
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return false
				}
				return true
			})
			if failed.Load() {
				return nil, firstSweepError(fs, errs)
			}
			return vals, nil
		}
	}

	res, err := sweep.Adaptive(fs, sweep.Options{Tol: s.sweepTol}, batch)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Point, len(fs))
	for i := range fs {
		z := res.Values[i]
		r, l := RL(z, fs[i])
		out[i] = Point{Freq: fs[i], Z: z, R: r, L: l, Interp: !res.Solved[i]}
		if res.Solved[i] {
			out[i].Iters = iters[i]
		}
	}
	return out, res.AnchorIdx, nil
}
