package fasthenry

import (
	"math"
	"strings"
	"sync"
	"testing"

	"inductance101/internal/geom"
)

// openBus is busLayout with the returns tied only at the driver end:
// every return's far end is a distinct node, so shorting the signal's
// far end to one of them picks that return as the loop.
func openBus(nWires int) (*geom.Layout, []int, Port, [][2]string, [][2]string) {
	l, segs, port, _ := busLayout(nWires, 600e-6, 2e-6, 6e-6)
	var base, alts [][2]string
	for i := 2; i < nWires; i++ {
		base = append(base, [2]string{"gb0", "g" + string(rune('a'+i)) + "0"})
	}
	for i := 1; i < nWires; i++ {
		alts = append(alts, [2]string{"sig1", gbOf(i)})
	}
	// Far end straight onto the port's minus node: a dropped row, given
	// in both orders.
	alts = append(alts, [2]string{"sig1", port.Minus}, [2]string{port.Minus, "sig1"})
	return l, segs, port, base, alts
}

// clockTree is a small two-layer clock-like structure: an X-directed
// trunk on M2 from the root with Y-directed branches to three sinks,
// over an M1 ground frame of X rails and Y straps tied to the upper
// ground layer by vias. The port is the root against the ground node
// under it; each alternative short ties one sink to its nearest ground
// node, as the §5 loop flow does.
func clockTree() (*geom.Layout, []int, Port, [][2]string, [][2]string) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M1", Z: 1e-6, Thickness: 0.5e-6, SheetRho: 0.04, HBelow: 1e-6},
		{Name: "M2", Z: 3e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
	})
	const u = 1e-6
	add := func(layer int, dir geom.Direction, x, y, length, w float64, net, a, b string) int {
		return l.AddSegment(geom.Segment{Layer: layer, Dir: dir, X0: x * u, Y0: y * u,
			Length: length * u, Width: w * u, Net: net, NodeA: a, NodeB: b})
	}
	segs := []int{
		add(1, geom.DirX, 0, 0, 200, 3, "clk", "root", "t1"),
		add(1, geom.DirX, 200, 0, 200, 3, "clk", "t1", "t2"),
		add(1, geom.DirY, 200, 0, 150, 2, "clk", "t1", "s0"),
		add(1, geom.DirY, 200, -150, 150, 2, "clk", "s1", "t1"),
		add(1, geom.DirY, 400, 0, 150, 2, "clk", "t2", "s2"),
		add(0, geom.DirX, 0, 160, 200, 4, "gnd", "ga0", "ga1"),
		add(0, geom.DirX, 200, 160, 200, 4, "gnd", "ga1", "ga2"),
		add(0, geom.DirX, 0, -160, 200, 4, "gnd", "gb0", "gb1"),
		add(0, geom.DirX, 200, -160, 200, 4, "gnd", "gb1", "gb2"),
		add(0, geom.DirY, 0, -160, 160, 4, "gnd", "gb0", "gm"),
		add(0, geom.DirY, 0, 0, 160, 4, "gnd", "gm", "ga0"),
		add(0, geom.DirY, 400, -160, 320, 4, "gnd", "gb2", "ga2"),
	}
	l.Vias = append(l.Vias, geom.Via{X: 200 * u, Y: 160 * u, LayerLo: 0, LayerHi: 1, NodeLo: "ga1", NodeHi: "ga1_m2"})
	port := Port{Plus: "root", Minus: "gm"}
	alts := [][2]string{{"s0", "ga1"}, {"s1", "gb1"}, {"s2", "ga2"}, {"s0", "ga1_m2"}, {"gm", "s1"}}
	return l, segs, port, nil, alts
}

// TestImpedanceEachShortMatchesPerShortSolvers checks the shared
// extraction against one NewSolver per short, in every solve mode: the
// dense merge P Y Pᵀ is the same algebra as the shorted solver's nodal
// analysis up to rounding, and the iterative paths run each short's
// port GMRES over the one shared compressed operator.
func TestImpedanceEachShortMatchesPerShortSolvers(t *testing.T) {
	layouts := []struct {
		name  string
		build func() (*geom.Layout, []int, Port, [][2]string, [][2]string)
		opt   Options
	}{
		{"bus", func() (*geom.Layout, []int, Port, [][2]string, [][2]string) { return openBus(8) }, Options{NW: 4, NT: 3}},
		{"clock", clockTree, Options{NW: 3, NT: 3}},
	}
	modes := []struct {
		mode SolveMode
		tol  float64
	}{
		{ModeDense, 1e-12},
		{ModeIterative, iterDenseTol},
		{ModeNested, iterDenseTol},
	}
	freqs := []float64{2e8, 1e10}
	for _, lc := range layouts {
		for _, mc := range modes {
			t.Run(lc.name+"/"+mc.mode.String(), func(t *testing.T) {
				l, segs, port, base, alts := lc.build()
				opt := lc.opt
				opt.Mode = mc.mode
				shared, err := NewSolver(l, segs, port, base, 1e10, opt)
				if err != nil {
					t.Fatal(err)
				}
				worst := 0.0
				zs, err := shared.ImpedanceEachShort(freqs, alts)
				if err != nil {
					t.Fatal(err)
				}
				if len(zs) != len(freqs) {
					t.Fatalf("%d frequencies of impedances for %d frequencies", len(zs), len(freqs))
				}
				for i, f := range freqs {
					got := zs[i]
					if len(got) != len(alts) {
						t.Fatalf("%d impedances for %d shorts", len(got), len(alts))
					}
					for k, sh := range alts {
						one, err := NewSolver(l, segs, port, append(append([][2]string(nil), base...), sh), 1e10, opt)
						if err != nil {
							t.Fatal(err)
						}
						want, err := one.Impedance(f)
						if err != nil {
							t.Fatalf("short %v at %g Hz: %v", sh, f, err)
						}
						d := relDiff(got[k], want)
						worst = max(worst, d)
						if d > mc.tol {
							t.Errorf("short %v at %g Hz: %v, per-short solver %v (rel %.2g > %g)",
								sh, f, got[k], want, d, mc.tol)
						}
					}
				}
				t.Logf("%d filaments, %d shorts: worst relative difference %.2g", shared.NumFilaments(), len(alts), worst)
			})
		}
	}
}

// TestImpedanceEachShortErrors: a name on no conductor is an error and
// mints no node; a short that ties the port terminals together or a
// segment end to end fails like the per-short solver would; a short
// the mesh already implies leaves the port impedance as it is.
func TestImpedanceEachShortErrors(t *testing.T) {
	l, segs, port, base, _ := openBus(4)
	s, err := NewSolver(l, segs, port, base, 1e10, Options{NW: 1, NT: 1, Mode: ModeDense})
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.nNodes
	for _, sh := range [][2]string{{"sig1", "nowhere"}, {"nowhere", "gb1"}} {
		_, err := s.ImpedanceEachShort([]float64{1e9}, [][2]string{{"sig1", "gb1"}, sh})
		if err == nil || !strings.Contains(err.Error(), "on no conductor") {
			t.Errorf("short %v: err = %v, want a no-conductor error", sh, err)
		}
	}
	if s.nNodes != nodes || s.mesh.NumNodes() != nodes {
		t.Errorf("lookup minted nodes: solver %d, mesh %d, want %d", s.nNodes, s.mesh.NumNodes(), nodes)
	}
	for _, sh := range [][2]string{{"sig0", port.Minus}, {"sig0", "sig1"}} {
		if _, err := s.ImpedanceEachShort([]float64{1e9}, [][2]string{sh}); err == nil {
			t.Errorf("short %v accepted", sh)
		}
		if _, err := NewSolver(l, segs, port, append(append([][2]string(nil), base...), sh), 1e10, Options{NW: 1, NT: 1}); err == nil {
			t.Errorf("per-short solver accepted short %v; test premise broken", sh)
		}
	}
	// gb0 and gc0 are already tied by the base shorts.
	s2, err := NewSolver(l, segs, port, append(append([][2]string(nil), base...), [2]string{"sig1", "gb1"}), 1e10, Options{NW: 1, NT: 1, Mode: ModeDense})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s2.Impedance(1e9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.ImpedanceEachShort([]float64{1e9}, [][2]string{{"gb0", "gc0"}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != want {
		t.Errorf("implied short: %v, want Impedance's %v", got[0][0], want)
	}
}

// TestImpedanceEachShortConcurrent calls one solver from several
// goroutines at once, on the dense and the iterative path, each call
// fanning its two frequencies out over two workers: they share the
// lazily built dense partial inductance or compressed operator, the
// direction blocks and the mesh's name lookup, and every call must
// return the serial answer bit for bit.
func TestImpedanceEachShortConcurrent(t *testing.T) {
	freqs := []float64{2e8, 5e9}
	for _, mode := range []SolveMode{ModeDense, ModeIterative} {
		t.Run(mode.String(), func(t *testing.T) {
			l, segs, port, base, alts := openBus(6)
			s, err := NewSolver(l, segs, port, base, 1e10, Options{NW: 3, NT: 2, Mode: mode, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			const callers = 4
			got := make([][][]complex128, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					got[g], errs[g] = s.ImpedanceEachShort(freqs, alts)
				}(g)
			}
			wg.Wait()
			s.workers = 1
			want, err := s.ImpedanceEachShort(freqs, alts)
			if err != nil {
				t.Fatal(err)
			}
			for g := range got {
				if errs[g] != nil {
					t.Fatalf("caller %d: %v", g, errs[g])
				}
				for i := range want {
					for k := range want[i] {
						if got[g][i][k] != want[i][k] {
							t.Errorf("caller %d at %g Hz short %d: %v, serial %v", g, freqs[i], k, got[g][i][k], want[i][k])
						}
					}
				}
			}
		})
	}
}

// TestImpedanceEachShortWorkerIndependent extracts the clock fixture's
// shorts at three frequencies with one and with two workers, in every
// solve mode: each frequency is its own solve, so the worker count
// must not move a bit.
func TestImpedanceEachShortWorkerIndependent(t *testing.T) {
	freqs := []float64{2e8, 1e9, 1e10}
	for _, mode := range []SolveMode{ModeDense, ModeIterative, ModeNested} {
		t.Run(mode.String(), func(t *testing.T) {
			l, segs, port, base, alts := clockTree()
			var z [2][][]complex128
			for w := range z {
				s, err := NewSolver(l, segs, port, base, 1e10, Options{NW: 3, NT: 3, Mode: mode, Workers: w + 1})
				if err != nil {
					t.Fatal(err)
				}
				if z[w], err = s.ImpedanceEachShort(freqs, alts); err != nil {
					t.Fatalf("%d workers: %v", w+1, err)
				}
			}
			for i := range freqs {
				for k := range alts {
					a, b := z[0][i][k], z[1][i][k]
					if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
						math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
						t.Errorf("at %g Hz short %d: 1 worker %v, 2 workers %v", freqs[i], k, a, b)
					}
				}
			}
		})
	}
}
