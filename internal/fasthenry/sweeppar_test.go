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

// TestIterativeSweepWorkerCountAgreement: an exact iterative sweep
// warm-starts GMRES along each worker's chunk, so the worker count
// moves its bits, unlike the dense sweep above; at 1, 2 and 3 workers
// it must still agree within 1e-9 relative. An adaptive sweep
// warm-starts each anchor from an anchor of an earlier batch, so its
// points must be bit-identical at every worker count.
func TestIterativeSweepWorkerCountAgreement(t *testing.T) {
	l, segs, port, shorts := busLayout(32, 1e-3, 1e-6, 2e-6)
	for _, tc := range []struct {
		mode  sweep.Mode
		freqs []float64
		tol   float64
	}{
		{sweep.ModeExact, LogSpace(1e8, 2e10, 6), 1e-9},
		{sweep.ModeAdaptive, LogSpace(1e8, 2e10, 201), 0},
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
				if tc.tol == 0 && pts[i] != ref[i] {
					t.Errorf("%v sweep, point %d: workers=%d gives %+v, workers=1 %+v", tc.mode, i, w, pts[i], ref[i])
				} else if d := cmplx.Abs(pts[i].Z-ref[i].Z) / cmplx.Abs(ref[i].Z); d > tc.tol {
					t.Errorf("%v sweep, point %d: workers=%d deviates %.3g from workers=1 (bound %g)",
						tc.mode, i, w, d, tc.tol)
				}
			}
		}
	}
}

// probeRun is a sweep executor over fs whose iterative solve is probe.
func probeRun(ctx context.Context, fs []float64, workers int,
	probe func(f float64, warm *[]complex128) (complex128, int, error)) *sweepRun {
	r := newSweepExec(ctx, fs, workers)
	r.iter = func(f float64, warm *[]complex128, _ *portWork) (complex128, int, error) { return probe(f, warm) }
	return r
}

// TestSweepExecWarmStart drives the sweep executor's iterative chunks
// with a probe solver: within one chunk every point must see the same
// warm vector, in ascending frequency order; a failure must be recorded
// at its own index, drop the warm vector and stop only its own chunk;
// and the returned error must name the lowest failing frequency.
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
}

// TestSweepExecSeeded drives the adaptive sweep's seeded executor with
// a probe solver: the first call must solve cold; each later point must
// start from the solution of the nearest point an earlier call solved
// (in log f, the lower on a tie), never from a point of its own call; a
// failed point must store no vector; and the error must name the
// lowest failing frequency. The seeds must not depend on the worker
// count.
func TestSweepExecSeeded(t *testing.T) {
	fs := []float64{1, 2, 3, 4, 8, 16, 32, 64, 128}
	for _, workers := range []int{1, 2, 3} {
		var mu sync.Mutex
		seen := map[float64][]complex128{} // frequency -> warm vector it started from
		r := probeRun(context.Background(), fs, workers,
			func(f float64, warm *[]complex128) (complex128, int, error) {
				mu.Lock()
				seen[f] = *warm
				mu.Unlock()
				if f == 16 || f == 32 {
					*warm = []complex128{-1} // half-updated state
					return 0, 0, fmt.Errorf("solver blew up")
				}
				*warm = []complex128{complex(f, 0)}
				return complex(f, f), 1, nil
			})
		r.seeds = make([][]complex128, len(fs))
		// call solves idxs and checks that each frequency in from started
		// from the solution at from[f] (0: cold).
		call := func(idxs []int, from map[float64]float64, wantErr string) {
			t.Helper()
			clear(seen)
			vals, err := r.solve(idxs)
			switch {
			case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
				t.Fatalf("workers=%d: error %v does not name %s", workers, err, wantErr)
			case wantErr == "" && (err != nil || len(vals) != len(idxs)):
				t.Fatalf("workers=%d: solve(%v) = %v, %v", workers, idxs, vals, err)
			}
			for f, src := range from {
				got, ok := seen[f]
				switch {
				case !ok:
					t.Fatalf("workers=%d: %g Hz was not solved", workers, f)
				case src == 0 && got != nil:
					t.Fatalf("workers=%d: %g Hz started from %v, want cold", workers, f, got)
				case src != 0 && (len(got) != 1 || got[0] != complex(src, 0)):
					t.Fatalf("workers=%d: %g Hz started from %v, want the %g Hz solution", workers, f, got, src)
				}
			}
		}
		call([]int{0, 4, 8}, map[float64]float64{1: 0, 8: 0, 128: 0}, "")
		// 3 Hz lies nearer 4 Hz and 2 Hz than 8 Hz, but those solve in
		// the same call; 32 Hz ties between 8 Hz and 128 Hz.
		call([]int{1, 2, 3, 5, 6}, map[float64]float64{2: 1, 3: 8, 4: 8, 16: 8, 32: 8}, "16Hz")
		// 32 Hz failed, so 64 Hz starts from 128 Hz, not from the tie at
		// 32 Hz; the executor keeps the errors it recorded.
		call([]int{7}, map[float64]float64{64: 128}, "16Hz")
		for i, f := range fs {
			if stored := r.seeds[i] != nil; stored != (f != 16 && f != 32) {
				t.Fatalf("workers=%d: %g Hz stored a vector: %v", workers, f, stored)
			}
		}
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
