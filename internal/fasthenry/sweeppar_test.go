package fasthenry

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/sweep"
)

// TestSweepParallelMatchesSerial: a dense sweep hands out single
// frequencies, so its points are bit-identical at every worker count.
func TestSweepParallelMatchesSerial(t *testing.T) {
	l, segs, port, shorts := signalOverReturn(1500e-6, 4e-6, 10e-6)
	mk := func(workers int) *Solver {
		s, err := NewSolver(l, segs, port, shorts, 1e10, Options{MaxPerSide: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	freqs := LogSpace(1e8, 1e10, 6)
	serial, err := mk(1).Sweep(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3, 16} {
		par, err := mk(workers).Sweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("length mismatch")
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d point %d: %+v != %+v", workers, i, par[i], serial[i])
			}
		}
	}
}

// TestIterativeSweepWorkerCountAgreement: an iterative sweep
// warm-starts GMRES along each worker's chunk, so the worker count
// moves its bits, unlike the dense sweep above. Exact iterative sweeps
// at 1, 2 and 3 workers must still agree within 1e-9 relative, and so
// must adaptive sweeps at every point all of them solved. The adaptive
// sweep's refine loop may pick other anchors from bits that differ, so
// its interpolated points agree only to the sweep tolerance.
func TestIterativeSweepWorkerCountAgreement(t *testing.T) {
	const solveTol = 1e-9
	l, segs, port, shorts := busLayout(32, 1e-3, 1e-6, 2e-6)
	for _, tc := range []struct {
		mode  sweep.Mode
		freqs []float64
	}{
		{sweep.ModeExact, LogSpace(1e8, 2e10, 6)},
		{sweep.ModeAdaptive, LogSpace(1e8, 2e10, 201)},
	} {
		var ref []Point
		for _, w := range []int{1, 2, 3} {
			s, err := NewSolver(l, segs, port, shorts, 20e9,
				Options{NW: 4, NT: 2, Mode: ModeIterative, Workers: w, SweepMode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			pts, err := s.Sweep(tc.freqs)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = pts
				continue
			}
			for i := range pts {
				tol := solveTol
				if pts[i].Interp || ref[i].Interp {
					tol = sweep.DefaultTol
				}
				if d := cmplx.Abs(pts[i].Z-ref[i].Z) / cmplx.Abs(ref[i].Z); d > tol {
					t.Errorf("%v sweep, point %d (interp %v/%v): workers=%d deviates %.3g from workers=1 (bound %g)",
						tc.mode, i, pts[i].Interp, ref[i].Interp, w, d, tol)
				}
			}
		}
	}
}

// probeRun is a sweep executor over fs whose iterative solve is probe.
func probeRun(ctx context.Context, fs []float64, workers int,
	probe func(f float64, warm *[]complex128) (complex128, int, error)) *sweepRun {
	return &sweepRun{ctx: ctx, fs: fs, workers: workers, iter: probe,
		warms: make([][]complex128, workers), iters: make([]int, len(fs)), errs: make([]error, len(fs))}
}

// TestSweepExecWarmStart drives the sweep executor's iterative chunks
// with a probe solver: within one chunk every point must see the same
// warm vector, in ascending frequency order; a failure must be recorded
// at its own index, drop the warm vector and stop only its own chunk;
// and the returned error must name the lowest failing frequency. A
// later solve call (an adaptive sweep's next anchor batch) must resume
// from the chunk's warm vector.
func TestSweepExecWarmStart(t *testing.T) {
	fs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	var mu sync.Mutex
	orders := map[*[]complex128][]float64{} // warm identity -> visit order
	failAt := map[float64]bool{3: true, 7: true}
	r := probeRun(context.Background(), fs, 2,
		func(f float64, warm *[]complex128) (complex128, int, error) {
			mu.Lock()
			orders[warm] = append(orders[warm], f)
			mu.Unlock()
			if *warm != nil && real((*warm)[0]) >= f {
				return 0, 0, fmt.Errorf("warm state from the future at f=%g", f)
			}
			if failAt[f] {
				*warm = []complex128{complex(-1, 0)} // half-updated state
				return 0, 0, fmt.Errorf("solver blew up")
			}
			*warm = []complex128{complex(f, 0)}
			return complex(f, f), 7, nil
		})
	if _, err := r.solve([]int{0, 1, 2, 3, 4, 5, 6, 7}); err == nil || !strings.Contains(err.Error(), "3Hz") {
		t.Fatalf("sweep error %v does not name the lowest failing frequency", err)
	}
	if len(orders) != 2 {
		t.Fatalf("expected 2 chunk states, saw %d", len(orders))
	}
	for warm, seq := range orders {
		for i := 1; i < len(seq); i++ {
			if seq[i] != seq[i-1]+1 {
				t.Fatalf("chunk visited %v: not contiguous ascending", seq)
			}
		}
		if *warm != nil {
			t.Fatalf("chunk that visited %v kept its warm vector after failing", seq)
		}
	}
	for i, f := range fs {
		switch {
		case failAt[f] && r.errs[i] == nil:
			t.Fatalf("failure at %g Hz not recorded", f)
		case f == 4 || f == 8:
			if r.errs[i] != nil || r.iters[i] != 0 {
				t.Fatalf("point %g Hz after its chunk failed was solved", f)
			}
		case !failAt[f] && (r.errs[i] != nil || r.iters[i] != 7):
			t.Fatalf("point %g Hz not solved: iters %d, err %v", f, r.iters[i], r.errs[i])
		}
	}

	// Without failures each chunk ends warm, and the next call's one
	// chunk starts from chunk 0's last solution.
	var seen []complex128
	r = probeRun(context.Background(), fs, 2,
		func(f float64, warm *[]complex128) (complex128, int, error) {
			if f == 8 {
				seen = *warm
			}
			*warm = []complex128{complex(f, 0)}
			return complex(f, f), 1, nil
		})
	vals, err := r.solve([]int{0, 1, 2, 3})
	if err != nil || len(vals) != 4 || vals[3] != complex(4, 4) {
		t.Fatalf("solve = %v, %v", vals, err)
	}
	if _, err := r.solve([]int{7}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != complex(2, 0) {
		t.Fatalf("second batch started from %v, want chunk 0's last solution (2 Hz)", seen)
	}
}

// TestSweepExecCancel: a cancelled context stops the chunks and
// surfaces as the sweep error.
func TestSweepExecCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	r := probeRun(ctx, []float64{1, 2, 3, 4}, 1,
		func(f float64, warm *[]complex128) (complex128, int, error) {
			calls++
			cancel()
			return complex(f, 0), 1, nil
		})
	_, err := r.solve([]int{0, 1, 2, 3})
	if calls != 1 {
		t.Fatalf("executor kept solving after cancel: %d calls", calls)
	}
	if r.errs[1] != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not recorded: point error %v, sweep error %v", r.errs[1], err)
	}
}

// randomBus builds a randomized parallel-bus loop: one signal wire and
// 2-4 return wires at random pitches, shorted at the far end.
func randomBus(rng *rand.Rand) (*geom.Layout, []int, Port, [][2]string) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
	})
	length := (500 + 2000*rng.Float64()) * 1e-6
	width := (2 + 6*rng.Float64()) * 1e-6
	nRet := 2 + rng.Intn(3)
	sig := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: length, Width: width, Net: "sig", NodeA: "sig0", NodeB: "sig1"})
	segs := []int{sig}
	shorts := [][2]string{{"sig1", "r0b"}}
	y := 0.0
	for k := 0; k < nRet; k++ {
		y += (width/1e-6 + 2 + 10*rng.Float64()) * 1e-6
		side := y
		if k%2 == 1 {
			side = -y
		}
		na, nb := fmt.Sprintf("r%da", k), fmt.Sprintf("r%db", k)
		segs = append(segs, l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: side,
			Length: length, Width: width, Net: "gnd", NodeA: na, NodeB: nb}))
		if k > 0 {
			shorts = append(shorts, [2]string{"r0b", nb}, [2]string{"r0a", na})
		}
	}
	return l, segs, Port{Plus: "sig0", Minus: "r0a"}, shorts
}

// TestSweepAdaptiveMatchesExact is the wiring-level property: for
// randomized bus geometries, random log/linear ranges and every solve
// mode, the adaptive sweep agrees with the exact sweep within the sweep
// tolerance at every requested frequency, actually interpolates, and
// marks what it interpolated.
func TestSweepAdaptiveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const tol = 1e-6
	for _, mode := range []SolveMode{ModeDense, ModeIterative, ModeNested} {
		l, segs, port, shorts := randomBus(rng)
		var freqs []float64
		n := 80 + rng.Intn(120)
		if rng.Intn(2) == 0 {
			freqs = LogSpace(1e8, 1e10, n)
		} else {
			f0 := 1e8 * (1 + 9*rng.Float64())
			f1 := f0 * (3 + 20*rng.Float64())
			freqs = make([]float64, n)
			for i := range freqs {
				freqs[i] = f0 + (f1-f0)*float64(i)/float64(n-1)
			}
		}
		mk := func(sm sweep.Mode) *Solver {
			s, err := NewSolver(l, segs, port, shorts, 1e10,
				Options{MaxPerSide: 2, Mode: mode, SweepMode: sm, SweepTol: tol, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		exact, err := mk(sweep.ModeExact).Sweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := mk(sweep.ModeAdaptive).Sweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		interp := 0
		for i := range freqs {
			if adaptive[i].Interp {
				interp++
			}
			e := cmplx.Abs(adaptive[i].Z-exact[i].Z) / cmplx.Abs(exact[i].Z)
			if e > 10*tol {
				t.Fatalf("mode=%v point %d (f=%g): adaptive deviates %.3g (interp=%v)",
					mode, i, freqs[i], e, adaptive[i].Interp)
			}
		}
		if interp == 0 {
			t.Fatalf("mode=%v: adaptive sweep interpolated nothing over %d points", mode, n)
		}
		if interp < n/2 {
			t.Fatalf("mode=%v: only %d of %d points interpolated — no win", mode, interp, n)
		}
	}
}

// TestSweepAutoThreshold: auto mode stays exact below the threshold and
// adapts above it.
func TestSweepAutoThreshold(t *testing.T) {
	l, segs, port, shorts := signalOverReturn(1000e-6, 4e-6, 10e-6)
	s, err := NewSolver(l, segs, port, shorts, 1e10, Options{MaxPerSide: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	short, err := s.Sweep(LogSpace(1e8, 1e10, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range short {
		if p.Interp {
			t.Fatal("short auto sweep interpolated")
		}
	}
	long, err := s.Sweep(LogSpace(1e8, 1e10, sweep.AutoThreshold+36))
	if err != nil {
		t.Fatal(err)
	}
	interp := 0
	for _, p := range long {
		if p.Interp {
			interp++
		}
	}
	if interp == 0 {
		t.Fatal("long auto sweep never interpolated")
	}
}
