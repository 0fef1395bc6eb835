package fasthenry

import (
	"context"
	"fmt"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/sweep"
)

func TestSweepParallelMatchesSerial(t *testing.T) {
	l, segs, port, shorts := signalOverReturn(1500e-6, 4e-6, 10e-6)
	s, err := NewSolver(l, segs, port, shorts, 1e10, Options{MaxPerSide: 2})
	if err != nil {
		t.Fatal(err)
	}
	freqs := LogSpace(1e8, 1e10, 6)
	serial, err := s.Sweep(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		par, err := s.SweepParallel(freqs, workers)
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
			pts, err := s.SweepParallel(tc.freqs, w)
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

// TestChunkRanges pins the iterative sweep's scheduling contract:
// contiguous ascending chunks that cover every index exactly once, and
// worker counts clamped to the point count (and to at least one).
func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{10, 3}, {10, 10}, {10, 100}, {1, 8}, {7, 1}, {5, 0}, {3, -2}, {16, 4},
	} {
		rs := chunkRanges(tc.n, tc.workers)
		if tc.workers > tc.n && len(rs) != tc.n {
			t.Fatalf("n=%d workers=%d: %d chunks, want clamp to %d", tc.n, tc.workers, len(rs), tc.n)
		}
		next := 0
		for _, r := range rs {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("n=%d workers=%d: chunk %v not contiguous ascending from %d", tc.n, tc.workers, r, next)
			}
			next = r[1]
		}
		if next != tc.n {
			t.Fatalf("n=%d workers=%d: chunks cover %d of %d", tc.n, tc.workers, next, tc.n)
		}
	}
}

// TestSweepIterativeRunWarmStart drives the chunked executor with a
// probe solver: within one chunk every point must see the same warm
// vector, in ascending frequency order, and a mid-chunk failure must be
// recorded at its own index, drop the warm vector, and leave the rest
// of the chunk solving cold.
func TestSweepIterativeRunWarmStart(t *testing.T) {
	fs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	out := make([]Point, len(fs))
	errs := make([]error, len(fs))

	var mu sync.Mutex
	orders := map[*[]complex128][]float64{} // warm identity -> visit order
	sweepIterativeRun(context.Background(), fs, 2, out, errs,
		func(f float64, warm *[]complex128) (complex128, int, error) {
			mu.Lock()
			orders[warm] = append(orders[warm], f)
			mu.Unlock()
			if f == 3 {
				*warm = []complex128{complex(-1, 0)} // half-updated state
				return 0, 0, fmt.Errorf("solver blew up")
			}
			if f == 4 && *warm != nil {
				return 0, 0, fmt.Errorf("point after the failure started warm from %v", *warm)
			}
			if *warm != nil && real((*warm)[0]) >= f {
				return 0, 0, fmt.Errorf("warm state from the future at f=%g", f)
			}
			*warm = []complex128{complex(f, 0)}
			return complex(f, f), 7, nil
		})

	if len(orders) != 2 {
		t.Fatalf("expected 2 worker states, saw %d", len(orders))
	}
	for _, seq := range orders {
		for i := 1; i < len(seq); i++ {
			if seq[i] != seq[i-1]+1 {
				t.Fatalf("worker visited %v: not contiguous ascending", seq)
			}
		}
	}
	for i, err := range errs {
		if fs[i] == 3 && err == nil {
			t.Fatal("mid-chunk failure not recorded")
		}
		if fs[i] != 3 {
			if err != nil {
				t.Fatalf("point %d failed: %v", i, err)
			}
			if out[i].Iters != 7 || out[i].Z != complex(fs[i], fs[i]) {
				t.Fatalf("point %d not solved: %+v", i, out[i])
			}
		}
	}
	if err := firstSweepError(fs, errs); err == nil || !strings.Contains(err.Error(), "3Hz") {
		t.Fatalf("sweep error %v does not name the failing frequency", err)
	}
}

// TestSweepIterativeRunCancel: a cancelled context stops the chunks and
// surfaces as a per-point error.
func TestSweepIterativeRunCancel(t *testing.T) {
	fs := []float64{1, 2, 3, 4}
	out := make([]Point, len(fs))
	errs := make([]error, len(fs))
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	sweepIterativeRun(ctx, fs, 1, out, errs,
		func(f float64, warm *[]complex128) (complex128, int, error) {
			calls++
			cancel()
			return complex(f, 0), 1, nil
		})
	if calls != 1 {
		t.Fatalf("executor kept solving after cancel: %d calls", calls)
	}
	if errs[1] == nil || errs[1] != ctx.Err() {
		t.Fatalf("cancellation not recorded: %v", errs[1])
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
				Options{MaxPerSide: 2, Mode: mode, SweepMode: sm, SweepTol: tol})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		exact, err := mk(sweep.ModeExact).SweepParallel(freqs, 4)
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := mk(sweep.ModeAdaptive).SweepParallel(freqs, 4)
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
	s, err := NewSolver(l, segs, port, shorts, 1e10, Options{MaxPerSide: 1})
	if err != nil {
		t.Fatal(err)
	}
	short, err := s.SweepParallel(LogSpace(1e8, 1e10, 10), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range short {
		if p.Interp {
			t.Fatal("short auto sweep interpolated")
		}
	}
	long, err := s.SweepParallel(LogSpace(1e8, 1e10, sweep.AutoThreshold+36), 2)
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
