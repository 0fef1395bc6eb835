package main

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"sort"
	"time"

	"inductance101/internal/design"
	"inductance101/internal/engine"
	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/mesh"
	"inductance101/internal/sweep"
)

// loopBus is the layout of a signal wire with len(ys)-1 return wires on
// one layer: the returns are tied together at both ends and to the
// signal at the far end, and the port drives the signal against the
// first return at the near end. ys are the wire centre lines.
type loopBus struct {
	lay    *geom.Layout
	segs   []int
	port   fasthenry.Port
	shorts [][2]string
}

// newLoopBus builds the bus. A non-nil rng shuffles the order in which
// the layout lists the wires and the shorts, as layout files list them
// in no particular order; the structure itself does not change.
func newLoopBus(rng *rand.Rand, ys []float64, length, width float64) loopBus {
	order := make([]int, len(ys))
	for i := range order {
		order[i] = i
	}
	var shorts [][2]string
	for w := 2; w < len(ys); w++ {
		shorts = append(shorts,
			[2]string{fmt.Sprintf("g%d_0", w-1), fmt.Sprintf("g%d_0", w)},
			[2]string{fmt.Sprintf("g%d_1", w-1), fmt.Sprintf("g%d_1", w)})
	}
	shorts = append(shorts, [2]string{"s1", "g1_1"})
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		rng.Shuffle(len(shorts), func(i, j int) { shorts[i], shorts[j] = shorts[j], shorts[i] })
	}
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	var segs []int
	for _, w := range order {
		net, a, b := "GND", fmt.Sprintf("g%d_0", w), fmt.Sprintf("g%d_1", w)
		if w == 0 {
			net, a, b = "sig", "s0", "s1"
		}
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: ys[w],
			Length: length, Width: width, Net: net, NodeA: a, NodeB: b,
		}))
	}
	return loopBus{lay, segs, fasthenry.Port{Plus: "s0", Minus: "g1_0"}, shorts}
}

// uniformBus lays wires 1 um wide and 1 mm long at a 2 um pitch, listed
// in a seeded order (in order for a nil rng).
//
// The seed does not move the wires. A pitch per wire defeats the kernel
// cache, which keys on relative geometry, and turns the 8k-filament op
// into a gigabyte of distinct entries. One seeded pitch for all wires
// sends the nested operator's GMRES into a stall of 7000+ iterations at
// the top frequency on about one pitch in fifteen within 2% of 2 um, a
// 40x slower op.
func uniformBus(rng *rand.Rand, wires int) loopBus {
	ys := make([]float64, wires)
	for w := range ys {
		ys[w] = float64(w) * 2e-6
	}
	return newLoopBus(rng, ys, 1e-3, 1e-6)
}

// extractWL is a loop-extraction workload: one op is what an rlsweep
// user waits for, NewSolver (mesh lowering), the compressed operator
// build and the sweep, under a fresh private kernel cache.
type extractWL struct {
	name string
	// inputs draws the structure and the sweep frequencies from the seed.
	inputs              func(rng *rand.Rand) (loopBus, []float64, error)
	nw, nt              int
	maxPerSide, planeNW int
	// parallelEff reruns one sweep serially when tracing, for
	// fasthenry.sweep_parallel_eff.
	parallelEff bool
	check       func(w *extractWL, e *env) error

	in       loopBus
	freqs    []float64
	last     []fasthenry.Point
	lastMode fasthenry.SolveMode
}

func newBus1k() *extractWL {
	return &extractWL{
		name: "bus_1k", nw: 4, nt: 2,
		// The adaptive sweep's anchor count flips between 24 and 28 under
		// rounding-level input changes (even the wire order), so seeded
		// inputs would vary the work by a sixth. The seed picks only the
		// frequencies the gate checks.
		inputs: func(*rand.Rand) (loopBus, []float64, error) {
			return uniformBus(nil, 128), fasthenry.LogSpace(1e8, 2e10, 201), nil
		},
		parallelEff: true,
		check:       (*extractWL).checkAgainstDense,
	}
}

func newBus8k() *extractWL {
	return &extractWL{
		name: "bus_8k", nw: 4, nt: 2,
		inputs: func(rng *rand.Rand) (loopBus, []float64, error) {
			return uniformBus(rng, 1024), fasthenry.LogSpace(1e8, 2e10, 3), nil
		},
		check: (*extractWL).checkAgainstFlatACA,
	}
}

func newPlane() *extractWL {
	return &extractWL{
		name: "plane", maxPerSide: 2, planeNW: 16,
		// The seed moves the far return by up to 2%, which leaves the
		// GMRES counts within 0.1%. The band stays fixed: its top sizes
		// the signal wires' filament grid.
		inputs: func(rng *rand.Rand) (loopBus, []float64, error) {
			spec := design.DefaultMicrostripSpec()
			spec.FarReturnD *= 1 + 0.02*(2*rng.Float64()-1)
			lay, segs, port, shorts, err := design.MicrostripLayout(spec)
			return loopBus{lay, segs, port, shorts}, []float64{1e8, 2e10}, err
		},
		check: (*extractWL).checkAgainstDense,
	}
}

func (w *extractWL) fRef() float64 { return w.freqs[len(w.freqs)-1] }

// options mints solver options from a fresh session: the run's config
// with a private (cold) kernel cache, plus the workload's mesh density.
func (w *extractWL) options(workers int, mode fasthenry.SolveMode) (*engine.Session, fasthenry.Options) {
	sess := engine.New(engine.Config{Workers: workers, Cache: engine.CachePrivate, SolveMode: mode, PlaneNW: w.planeNW})
	o := sess.SolverOptions()
	o.NW, o.NT, o.MaxPerSide = w.nw, w.nt, w.maxPerSide
	return sess, o
}

func (w *extractWL) setup(e *env, iter int) error {
	id := e.tr.begin(-1, iter, "mesh.build")
	in, freqs, err := w.inputs(e.rand())
	if err != nil {
		e.tr.end(id, nil)
		return err
	}
	w.in, w.freqs = in, freqs
	m, err := mesh.Build(in.lay, in.segs, in.shorts, w.fRef(), mesh.Options{
		NW: w.nw, NT: w.nt, MaxPerSide: w.maxPerSide, PlaneNW: w.planeNW,
	})
	if err != nil {
		e.tr.end(id, nil)
		return err
	}
	e.tr.end(id, map[string]float64{"mesh.filaments": float64(len(m.Filaments)), "mesh.nodes": float64(m.NumNodes())})
	return nil
}

func (w *extractWL) measure(e *env, deadline time.Time) ([]float64, int, int) {
	return closedLoop(e, deadline, func(iter int) error { return w.op(e, iter) })
}

func (w *extractWL) op(e *env, iter int) error {
	root := e.tr.begin(-1, iter, w.name)
	var rootCounts map[string]float64
	defer func() { e.tr.end(root, rootCounts) }()
	sess, opt := w.options(e.workers, fasthenry.ModeAuto)

	id := e.tr.begin(root, iter, "mesh.lower")
	s, err := fasthenry.NewSolver(w.in.lay, w.in.segs, w.in.port, w.in.shorts, w.fRef(), opt)
	if err != nil {
		e.tr.end(id, nil)
		return err
	}
	e.tr.end(id, map[string]float64{"mesh.filaments": float64(s.NumFilaments())})

	mode := s.SolveModeInUse()
	if mode != fasthenry.ModeDense {
		id = e.tr.begin(root, iter, "extract.operator_build")
		st := s.OperatorStats()
		e.tr.end(id, map[string]float64{
			"extract.far_blocks":                   float64(st.FarBlocks),
			"extract.max_rank":                     float64(st.MaxRank),
			"extract.compression_x":                st.CompressionRatio(),
			"extract.near_kernel_evals":            float64(st.NearKernelEvals),
			"extract.far_kernel_evals":             float64(st.FarKernelEvals),
			"extract.kernel_evals_per_dense_entry": float64(st.KernelEvals) / float64(st.DenseKernelEntries),
		})
	}

	id = e.tr.begin(root, iter, "fasthenry.sweep")
	pts, err := s.Sweep(w.freqs)
	if err != nil {
		e.tr.end(id, nil)
		return err
	}
	e.tr.end(id, sweepCounts(pts))
	rootCounts = map[string]float64{"extract.cache_hit_rate": sess.CacheStats().HitRate()}
	w.last, w.lastMode = pts, mode
	return nil
}

// sweepCounts summarizes a sweep: GMRES iterations in total and at the
// lowest and highest solved frequency, and how many points were solved
// rather than interpolated.
func sweepCounts(pts []fasthenry.Point) map[string]float64 {
	var solved []fasthenry.Point
	total := 0
	for _, p := range pts {
		if !p.Interp {
			solved = append(solved, p)
			total += p.Iters
		}
	}
	c := map[string]float64{
		"fasthenry.gmres_iters":   float64(total),
		"fasthenry.solved_points": float64(len(solved)),
		"sweep.solved_fraction":   float64(len(solved)) / float64(len(pts)),
	}
	if len(solved) > 0 {
		c["fasthenry.gmres_iters_first"] = float64(solved[0].Iters)
		c["fasthenry.gmres_iters_last"] = float64(solved[len(solved)-1].Iters)
	}
	return c
}

func (w *extractWL) gate(e *env) error { return w.check(w, e) }

// gateFreqs is how many seeded frequencies of a long sweep the dense
// oracle checks.
const gateFreqs = 5

// checkAgainstDense compares the last sweep with the dense complex-LU
// oracle: at every frequency of a short sweep, at gateFreqs seeded ones
// of a long one. Solved points must agree within 1e-6, the documented
// iterative-vs-dense bound; interpolated ones within ten times the
// adaptive sweep's tolerance.
func (w *extractWL) checkAgainstDense(e *env) error {
	idx := make([]int, len(w.freqs))
	for i := range idx {
		idx[i] = i
	}
	if len(idx) > gateFreqs {
		idx = e.rand().Perm(len(w.freqs))[:gateFreqs]
		sort.Ints(idx)
	}
	var freqs []float64
	for _, i := range idx {
		freqs = append(freqs, w.freqs[i])
	}
	_, opt := w.options(e.workers, fasthenry.ModeDense)
	oracle, err := fasthenry.NewSolver(w.in.lay, w.in.segs, w.in.port, w.in.shorts, w.fRef(), opt)
	if err != nil {
		return err
	}
	ref, err := oracle.Sweep(freqs) // ascending, like idx
	if err != nil {
		return fmt.Errorf("%s dense oracle: %w", w.name, err)
	}
	var got, want []complex128
	var tol []float64
	for k, i := range idx {
		p := w.last[i]
		got, want = append(got, p.Z), append(want, ref[k].Z)
		if p.Interp {
			tol = append(tol, 10*sweep.DefaultTol)
		} else {
			tol = append(tol, 1e-6)
		}
	}
	return checkAgree(w.name+" vs dense", freqs, got, want, tol)
}

// checkAgainstFlatACA reruns the last sweep through the flat-ACA
// operator, where the dense oracle no longer fits, and requires the two
// compressed operators to agree within 1e-6 at every point.
func (w *extractWL) checkAgainstFlatACA(e *env) error {
	if w.lastMode != fasthenry.ModeNested {
		return fmt.Errorf("%s: auto mode ran %v, want nested", w.name, w.lastMode)
	}
	_, opt := w.options(e.workers, fasthenry.ModeIterative)
	flat, err := fasthenry.NewSolver(w.in.lay, w.in.segs, w.in.port, w.in.shorts, w.fRef(), opt)
	if err != nil {
		return err
	}
	pts, err := flat.Sweep(w.freqs)
	if err != nil {
		return fmt.Errorf("%s flat ACA: %w", w.name, err)
	}
	var got, want []complex128
	var tol []float64
	for i := range pts {
		got, want, tol = append(got, w.last[i].Z), append(want, pts[i].Z), append(tol, 1e-6)
	}
	return checkAgree(w.name+" nested vs flat ACA", w.freqs, got, want, tol)
}

// checkAgree fails at the first point whose relative deviation from
// the reference exceeds its tolerance.
func checkAgree(what string, freqs []float64, got, want []complex128, tol []float64) error {
	for i := range got {
		if d := cmplx.Abs(got[i]-want[i]) / cmplx.Abs(want[i]); !(d <= tol[i]) {
			return fmt.Errorf("%s: at %.4g Hz deviates by %.3g (tolerance %.3g)", what, freqs[i], d, tol[i])
		}
	}
	return nil
}

// traceExtras measures the sweep's parallel efficiency: one serial
// sweep against the window's median sweep at the run's worker count.
func (w *extractWL) traceExtras(e *env, spans []span) error {
	if !w.parallelEff {
		return nil
	}
	par := layerValues(spans, []string{"fasthenry.sweep_s"})["fasthenry.sweep_s"]
	_, opt := w.options(1, fasthenry.ModeAuto)
	s, err := fasthenry.NewSolver(w.in.lay, w.in.segs, w.in.port, w.in.shorts, w.fRef(), opt)
	if err != nil {
		return err
	}
	if s.SolveModeInUse() != fasthenry.ModeDense {
		s.OperatorStats()
	}
	t0 := time.Now()
	if _, err := s.Sweep(w.freqs); err != nil {
		return err
	}
	e.extras["fasthenry.sweep_parallel_eff"] = time.Since(t0).Seconds() / (par * float64(e.workers))
	return nil
}

func (w *extractWL) close() {}
