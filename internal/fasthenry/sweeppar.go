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
// exact iterative results agree across worker counts only to the GMRES
// tolerance.
//
// Under Options.SweepMode adaptive (or auto at sweep.AutoThreshold
// requested points) only a few adaptively chosen anchor frequencies are
// solved and the remaining points are filled by a cross-validated
// rational interpolant (Point.Interp marks them). Each anchor is an
// independent item warm-started from the nearest anchor an earlier
// batch solved, so adaptive sweeps are bit-identical at any worker
// count on every solve path.
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
// executor in its seeded mode: every anchor batch is a set of
// independent items, each warm-started from the nearest anchor solved
// by an earlier batch, so the anchors and their bits do not depend on
// the worker count. Interpolated points carry Interp=true and no
// iteration count. It also returns the anchor indices in solve order.
func (s *Solver) sweepAdaptive(ctx context.Context, fs []float64, workers int) ([]Point, []int, error) {
	run := s.newSweepRun(ctx, fs, workers)
	run.seeds = make([][]complex128, len(fs))
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
// *warm, in scratch ws taken from the run's pool (dense and iter are
// fields so tests can drive the scheduling with failures and order
// probes the real physics cannot produce on demand).
type sweepRun struct {
	ctx     context.Context
	fs      []float64
	workers int
	dense   func(f float64) (complex128, error)
	iter    func(f float64, warm *[]complex128, ws *portWork) (complex128, int, error)
	// work holds one iterative scratch per worker for the whole sweep:
	// a goroutine takes one for its solves and puts it back, so the
	// Krylov basis and block factors are allocated once per worker, not
	// once per point.
	work chan *portWork
	// warms holds each exact iterative chunk's warm vector (nil until
	// its first solve), carried from one solve call to the next.
	warms [][]complex128
	// seeds, non-nil in an adaptive sweep, holds the [i; v/ρ] solution
	// of every iterative point an earlier solve call solved, by index
	// into fs (nil: none), nseeds of them.
	seeds  [][]complex128
	nseeds int
	iters  []int // GMRES iterations of each solved point
	errs   []error
}

func (s *Solver) newSweepRun(ctx context.Context, fs []float64, workers int) *sweepRun {
	r := newSweepExec(ctx, fs, workers)
	if s.iterativeMode() {
		s.compressedOp()
		r.iter = s.impedanceIterative
	} else {
		r.dense = s.impedanceDense
	}
	return r
}

// newSweepExec returns an executor over fs with no solver bound.
func newSweepExec(ctx context.Context, fs []float64, workers int) *sweepRun {
	r := &sweepRun{ctx: ctx, fs: fs, workers: workers, work: make(chan *portWork, workers),
		warms: make([][]complex128, workers), iters: make([]int, len(fs)), errs: make([]error, len(fs))}
	for range workers {
		r.work <- new(portWork)
	}
	return r
}

// solve solves the ascending indices idxs and returns their impedances
// in the same order, or the error at the lowest failing frequency. It
// schedules by one of three rules, each writing every output from
// exactly one goroutine:
//   - dense points are handed out one at a time (matrix.ParallelItems):
//     every point costs the same LU, so fine-grained claiming balances
//     best, and a failure does not stop the others;
//   - adaptive (seeded) iterative points are handed out the same way,
//     see solveSeeded;
//   - exact iterative points go in min(workers, len(idxs)) contiguous
//     ascending chunks (matrix.RangeChunks); chunk c solves in order
//     from warms[c] and stops at its first failure, dropping its warm
//     vector.
func (r *sweepRun) solve(idxs []int) ([]complex128, error) {
	vals := make([]complex128, len(idxs))
	switch {
	case r.iter == nil:
		matrix.ParallelItems(r.workers, len(idxs), func(k int) {
			i := idxs[k]
			if r.errs[i] = r.ctx.Err(); r.errs[i] == nil {
				vals[k], r.errs[i] = r.dense(r.fs[i])
			}
		})
	case r.seeds != nil:
		r.solveSeeded(idxs, vals)
	default:
		chunks := matrix.RangeChunks(r.workers, len(idxs), 1)
		matrix.ParallelItems(len(chunks), len(chunks), func(c int) {
			warm, ws := &r.warms[c], <-r.work
			defer func() { r.work <- ws }()
			for k := chunks[c][0]; k < chunks[c][1]; k++ {
				i := idxs[k]
				err := r.ctx.Err()
				if err == nil {
					vals[k], r.iters[i], err = r.iter(r.fs[i], warm, ws)
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

// solveSeeded solves the iterative points idxs into vals as
// independent items, highest frequency (the most GMRES iterations)
// first. Each starts GMRES from the stored solution of the nearest
// point an earlier call solved — nearest in log f, the lower frequency
// on a tie — or cold in the first call. Solutions are stored only once
// every item is done, so the points of one call never seed each other
// and the bits do not depend on the worker count or the handout order.
// A failed point stores nothing. A call that would store more than
// sweep.AnchorCap solutions stores none: only an adaptive sweep's
// fallback call can, and no call follows it.
func (r *sweepRun) solveSeeded(idxs []int, vals []complex128) {
	xs := make([][]complex128, len(idxs))
	for k, i := range idxs {
		xs[k] = r.nearestSeed(i)
	}
	n := len(idxs)
	matrix.ParallelItems(r.workers, n, func(j int) {
		k := n - 1 - j
		i := idxs[k]
		err := r.ctx.Err()
		if err == nil {
			ws := <-r.work
			vals[k], r.iters[i], err = r.iter(r.fs[i], &xs[k], ws)
			r.work <- ws
		}
		if err != nil {
			r.errs[i] = err
			xs[k] = nil
		}
	})
	if r.nseeds+n > sweep.AnchorCap {
		return
	}
	for k, i := range idxs {
		if xs[k] != nil {
			r.seeds[i] = xs[k]
			r.nseeds++
		}
	}
}

// nearestSeed returns the stored solution nearest fs[i] in log f, the
// lower frequency on a tie (nil: none stored).
func (r *sweepRun) nearestSeed(i int) []complex128 {
	lo, hi := i-1, i+1
	for lo >= 0 && r.seeds[lo] == nil {
		lo--
	}
	for hi < len(r.fs) && r.seeds[hi] == nil {
		hi++
	}
	if lo >= 0 && (hi == len(r.fs) || r.fs[i]/r.fs[lo] <= r.fs[hi]/r.fs[i]) {
		return r.seeds[lo]
	}
	if hi < len(r.fs) {
		return r.seeds[hi]
	}
	return nil
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
