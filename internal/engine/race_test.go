package engine

import (
	"sync"
	"testing"

	"inductance101/internal/circuit"
	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/sim"
)

// raceLayout is the Fig. 3(a) signal-over-return structure used by the
// fasthenry tests: a signal wire between two ground returns, shorted at
// the far end.
func raceLayout() (*geom.Layout, []int, fasthenry.Port, [][2]string) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
	})
	sig := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 1500e-6, Width: 2e-6, Net: "sig", NodeA: "sig0", NodeB: "sig1"})
	g1 := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: -8e-6,
		Length: 1500e-6, Width: 2e-6, Net: "gnd", NodeA: "g1a", NodeB: "g1b"})
	g2 := l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, X0: 0, Y0: 8e-6,
		Length: 1500e-6, Width: 2e-6, Net: "gnd", NodeA: "g2a", NodeB: "g2b"})
	port := fasthenry.Port{Plus: "sig0", Minus: "g1a"}
	shorts := [][2]string{{"sig1", "g1b"}, {"g1b", "g2b"}, {"g1a", "g2a"}}
	return l, []int{sig, g1, g2}, port, shorts
}

// raceNetlist is a small linear RLC ladder for the transient leg.
func raceNetlist() *circuit.Netlist {
	n := circuit.New()
	n.AddV("vin", "in", circuit.Ground, circuit.Pulse{
		V1: 0, V2: 1, Delay: 50e-12, Rise: 50e-12, Width: 1, Fall: 50e-12,
	})
	n.AddR("r1", "in", "a", 50)
	n.AddL("l1", "a", "b", 2e-9)
	n.AddC("c1", "b", circuit.Ground, 1e-12)
	n.AddR("r2", "b", "out", 100)
	n.AddC("c2", "out", circuit.Ground, 0.5e-12)
	return n
}

// TestConcurrentSessionsConflictingConfigs runs two sessions with
// deliberately opposed configs — dense vs iterative solve, one worker
// vs four — concurrently through the fasthenry sweep, with sparse
// transients running alongside. Under -race this proves per-run config
// threads through the stack without shared mutable tuning state; the
// result checks prove no run perturbs another's answers.
func TestConcurrentSessionsConflictingConfigs(t *testing.T) {
	sessA := New(Config{
		Workers:   1,
		SolveMode: fasthenry.ModeDense,
	})
	sessB := New(Config{
		Workers:   4,
		SolveMode: fasthenry.ModeIterative,
		ACATol:    1e-9,
	})

	freqs := fasthenry.LogSpace(1e8, 1e10, 5)

	// Serial references, one fresh solver per session config.
	ref := func(s *Session) []fasthenry.Point {
		l, segs, port, shorts := raceLayout()
		solver, err := fasthenry.NewSolver(l, segs, port, shorts, 1e9, s.SolverOptions())
		if err != nil {
			t.Fatal(err)
		}
		pts, err := solver.Sweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	refA, refB := ref(sessA), ref(sessB)

	topt := sim.TranOptions{TStop: 1e-9, TStep: 1e-12}
	trRef, err := sim.Tran(raceNetlist(), topt)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan error, 4*rounds)
	for r := 0; r < rounds; r++ {
		for _, tc := range []struct {
			sess *Session
			want []fasthenry.Point
		}{{sessA, refA}, {sessB, refB}} {
			tc := tc
			wg.Add(1)
			go func() {
				defer wg.Done()
				l, segs, port, shorts := raceLayout()
				solver, err := fasthenry.NewSolver(l, segs, port, shorts, 1e9, tc.sess.SolverOptions())
				if err != nil {
					errc <- err
					return
				}
				pts, err := solver.Sweep(freqs)
				if err != nil {
					errc <- err
					return
				}
				for i := range pts {
					if pts[i].R != tc.want[i].R || pts[i].L != tc.want[i].L {
						t.Errorf("concurrent sweep diverged from the session's own serial run at point %d", i)
						return
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := sim.Tran(raceNetlist(), topt)
				if err != nil {
					errc <- err
					return
				}
				got, want := tr.MustV("out"), trRef.MustV("out")
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent transient diverged from the serial run at step %d", i)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
