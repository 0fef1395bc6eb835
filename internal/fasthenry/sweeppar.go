package fasthenry

import (
	"context"
	"fmt"
	"sort"

	"inductance101/internal/matrix"
	"inductance101/internal/sweep"
	"inductance101/internal/units"
)

// Sweep extracts the port impedance at each frequency, in ascending
// frequency order, over Options.Workers goroutines (0 = matrix.Workers):
// each frequency's complex solve is independent, which makes extraction
// sweeps (the dominant cost of the loop-model flow) scale with cores.
//
// The two exact solve paths schedule differently (see sweepRun). The
// dense path hands out single frequencies, and its results are
// bit-identical at any worker count. The iterative path splits the
// ascending frequencies into contiguous chunks, one per worker, and
// warm-starts GMRES along each chunk from the previous point's branch
// currents and node voltages, which trims iteration counts because
// R(f), L(f) vary smoothly. The worker count moves the chunk
// boundaries, so a point may start GMRES from a different warm vector:
// iterative results agree across worker counts only to the GMRES
// tolerance.
//
// Under Options.SweepMode adaptive (or auto at sweep.AutoThreshold
// requested points) only a few adaptively chosen anchor frequencies are
// solved — scheduled exactly as above — and the remaining points are
// filled by a cross-validated rational interpolant (Point.Interp marks
// them). Anchor bits that differ may steer the iterative path's refine
// loop to other anchors, so its interpolated points agree across worker
// counts only to the sweep tolerance.
func (s *Solver) Sweep(freqs []float64) ([]Point, error) {
	return s.SweepCtx(context.Background(), freqs)
}

// SweepCtx is Sweep with cooperative cancellation: the sweep stops
// between solves once ctx is done and returns ctx's error.
func (s *Solver) SweepCtx(ctx context.Context, freqs []float64) ([]Point, error) {
	fs := append([]float64(nil), freqs...)
	sort.Float64s(fs)
	workers := s.workers
	if workers <= 0 {
		workers = matrix.Workers()
	}
	if s.sweepMode.Adapt(len(fs)) {
		pts, _, err := s.sweepAdaptive(ctx, fs, workers)
		return pts, err
	}
	run := s.newSweepRun(ctx, fs, workers)
	all := make([]int, len(fs))
	for i := range all {
		all[i] = i
	}
	vals, err := run.solve(all)
	if err != nil {
		return nil, err
	}
	return run.points(vals, nil), nil
}

// sweepAdaptive runs the anchor-and-fit engine over the one sweep
// executor, whose per-chunk warm vectors persist across anchor batches:
// the refine loop mostly adds one anchor at a time, and those solves
// keep chunk 0's warm vector. Interpolated points carry Interp=true and
// no iteration count. It also returns the anchor indices in solve
// order.
func (s *Solver) sweepAdaptive(ctx context.Context, fs []float64, workers int) ([]Point, []int, error) {
	run := s.newSweepRun(ctx, fs, workers)
	res, err := sweep.Adaptive(fs, sweep.Options{Tol: s.sweepTol}, run.solve)
	if err != nil {
		return nil, nil, err
	}
	return run.points(res.Values, res.Solved), res.AnchorIdx, nil
}

// sweepRun is the one executor of a sweep over the ascending
// frequencies fs: each solve call solves a set of indices into fs over
// up to workers goroutines. On the dense path dense solves each point;
// on the iterative paths iter does, warm-started from and updating
// *warm (dense and iter are fields so tests can drive the scheduling
// with failures and order probes the real physics cannot produce on
// demand).
type sweepRun struct {
	ctx     context.Context
	fs      []float64
	workers int
	dense   func(f float64) (complex128, error)
	iter    func(f float64, warm *[]complex128) (complex128, int, error)
	// warms holds each iterative chunk's warm vector (nil until its
	// first solve), carried from one solve call to the next.
	warms [][]complex128
	iters []int // GMRES iterations of each solved point
	errs  []error
}

func (s *Solver) newSweepRun(ctx context.Context, fs []float64, workers int) *sweepRun {
	r := &sweepRun{ctx: ctx, fs: fs, workers: workers,
		warms: make([][]complex128, workers), iters: make([]int, len(fs)), errs: make([]error, len(fs))}
	if s.iterativeMode() {
		s.compressedOp()
		r.iter = s.impedanceIterative
	} else {
		r.dense = s.impedanceDense
	}
	return r
}

// solve solves the ascending indices idxs and returns their impedances
// in the same order, or the error at the lowest failing frequency.
// Dense points are handed out one at a time (matrix.ParallelItems):
// every point costs the same LU, so fine-grained claiming balances
// best, and a failure does not stop the others. Iterative points go in
// min(workers, len(idxs)) contiguous ascending chunks
// (matrix.RangeChunks); chunk c solves in order from warms[c] and stops
// at its first failure, dropping its warm vector. Each output is
// written by exactly one goroutine.
func (r *sweepRun) solve(idxs []int) ([]complex128, error) {
	vals := make([]complex128, len(idxs))
	if r.iter == nil {
		matrix.ParallelItems(r.workers, len(idxs), func(k int) {
			i := idxs[k]
			if r.errs[i] = r.ctx.Err(); r.errs[i] == nil {
				vals[k], r.errs[i] = r.dense(r.fs[i])
			}
		})
	} else {
		chunks := matrix.RangeChunks(r.workers, len(idxs), 1)
		matrix.ParallelItems(len(chunks), len(chunks), func(c int) {
			warm := &r.warms[c]
			for k := chunks[c][0]; k < chunks[c][1]; k++ {
				i := idxs[k]
				err := r.ctx.Err()
				if err == nil {
					vals[k], r.iters[i], err = r.iter(r.fs[i], warm)
				}
				if err != nil {
					r.errs[i] = err
					*warm = nil
					return
				}
			}
		})
	}
	if err := firstSweepError(r.fs, r.errs); err != nil {
		return nil, err
	}
	return vals, nil
}

// points assembles the sweep's result from the impedance at every
// frequency; solved marks the exactly solved points (nil: all were).
func (r *sweepRun) points(vals []complex128, solved []bool) []Point {
	out := make([]Point, len(r.fs))
	for i, f := range r.fs {
		res, l := RL(vals[i], f)
		out[i] = Point{Freq: f, Z: vals[i], R: res, L: l, Iters: r.iters[i], Interp: solved != nil && !solved[i]}
	}
	return out
}

func firstSweepError(fs []float64, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fasthenry: at %s: %w", units.FormatSI(fs[i], "Hz"), err)
		}
	}
	return nil
}
