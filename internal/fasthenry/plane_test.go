package fasthenry

import (
	"math"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/grid"
)

// microstripOverPlane builds a microstrip-over-plane layout big enough
// for the compressed operators to be meaningful: a signal and its far
// return over a PlaneNW=16 plane lower to ~550 filaments, past the
// dense/iterative auto threshold. holes perforate the plane.
func microstripOverPlane(t testing.TB, holes ...geom.Hole) (*geom.Layout, []int, Port, [][2]string) {
	t.Helper()
	lay := geom.NewLayout(grid.StandardLayers())
	segs := []int{
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
			Length: 1500e-6, Width: 2e-6,
			Net: "sig", NodeA: "s0", NodeB: "s1",
		}),
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 80e-6,
			Length: 1500e-6, Width: 2e-6,
			Net: "ret", NodeA: "r0", NodeB: "r1",
		}),
	}
	lay.AddPlane(geom.Plane{
		Layer: 0, X0: 0, Y0: -24e-6, X1: 1500e-6, Y1: 24e-6,
		Net: "ret", NodeLeft: "p0", NodeRight: "p1", Holes: holes,
	})
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	return lay, segs, Port{Plus: "s0", Minus: "r0"},
		[][2]string{{"s1", "r1"}, {"p1", "s1"}, {"p0", "r0"}}
}

// TestPlaneThreeModeAgreement is the acceptance gate of the shared
// lowering stage: all three solve paths — dense LU, flat-ACA GMRES and
// the nested-basis operator — consume the same mesh filaments for a
// microstrip over a conductor plane and must agree pairwise to 1e-6
// relative on the port impedance.
func TestPlaneThreeModeAgreement(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	const f = 1e9
	modes := []struct {
		name string
		mode SolveMode
	}{
		{"dense", ModeDense},
		{"iterative", ModeIterative},
		{"nested", ModeNested},
	}
	z := make([]complex128, len(modes))
	for i, m := range modes {
		s, err := NewSolver(lay, segs, port, shorts, f, Options{
			MaxPerSide: 2, PlaneNW: 16, Mode: m.mode,
			Workers: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if i == 0 && s.NumFilaments() < 512 {
			t.Fatalf("only %d filaments; the structure no longer exercises the compressed paths", s.NumFilaments())
		}
		zi, err := s.Impedance(f)
		if err != nil {
			t.Fatalf("%s impedance: %v", m.name, err)
		}
		z[i] = zi
	}
	for i := 0; i < len(modes); i++ {
		for j := i + 1; j < len(modes); j++ {
			rel := cmplxAbs(z[i]-z[j]) / cmplxAbs(z[i])
			if rel > 1e-6 {
				t.Errorf("%s vs %s: Z %v vs %v (rel %.3g > 1e-6)",
					modes[i].name, modes[j].name, z[i], z[j], rel)
			}
		}
	}
	r, l := RL(z[0], f)
	if r <= 0 || l <= 0 {
		t.Errorf("non-physical plane extraction: R=%g L=%g", r, l)
	}
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// TestPlaneSolverDeterministic re-extracts the plane structure on the
// iterative path at different worker counts: the mesh lowering and the
// clustered operator are both deterministic, so the impedances must be
// bit-identical.
func TestPlaneSolverDeterministic(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	const f = 2e9
	solve := func(workers int) complex128 {
		s, err := NewSolver(lay, segs, port, shorts, f, Options{
			MaxPerSide: 2, PlaneNW: 12, Mode: ModeIterative,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		z, err := s.Impedance(f)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	want := solve(1)
	for _, w := range []int{2, 4} {
		got := solve(w)
		if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
			t.Errorf("workers=%d: Z %v differs from serial %v", w, got, want)
		}
	}
}

// portDrivenCases are the compressed-operator configurations the
// port-driven solve must agree with the dense oracle on.
var portDrivenCases = []struct {
	name string
	mode SolveMode
}{
	{"aca", ModeIterative},
	{"h2", ModeNested},
}

// planeImpedances solves the layout at PlaneNW=16 on the dense oracle
// and on every port-driven case, at each frequency: z[0] is dense,
// z[1+c] is portDrivenCases[c].
func planeImpedances(t *testing.T, lay *geom.Layout, segs []int, port Port, shorts [][2]string, freqs []float64) [][]complex128 {
	t.Helper()
	opts := []Options{{Mode: ModeDense}}
	for _, c := range portDrivenCases {
		opts = append(opts, Options{Mode: c.mode})
	}
	z := make([][]complex128, len(opts))
	for i, o := range opts {
		o.MaxPerSide, o.PlaneNW, o.Workers = 2, 16, 2
		s, err := NewSolver(lay, segs, port, shorts, freqs[len(freqs)-1], o)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range freqs {
			zi, err := s.Impedance(f)
			if err != nil {
				t.Fatalf("mode %v at %g Hz: %v", o.Mode, f, err)
			}
			z[i] = append(z[i], zi)
		}
	}
	return z
}

// checkPortDriven asserts every port-driven case within iterDenseTol
// of the dense oracle.
func checkPortDriven(t *testing.T, freqs []float64, z [][]complex128) {
	t.Helper()
	for c, pc := range portDrivenCases {
		for k, f := range freqs {
			if d := relDiff(z[1+c][k], z[0][k]); d > iterDenseTol {
				t.Errorf("%s at %g Hz: |Z-Zdense|/|Zdense| = %.3g > %g", pc.name, f, d, iterDenseTol)
			}
		}
	}
}

var portDrivenFreqs = []float64{1e8, 1e9, 2e10}

// TestPortDrivenPlaneMatchesDense: on a plane (257 reduced nodes, one
// port) the single augmented GMRES per frequency reproduces the dense
// nodal-admittance oracle through both compressed operators, across
// the band.
func TestPortDrivenPlaneMatchesDense(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	checkPortDriven(t, portDrivenFreqs, planeImpedances(t, lay, segs, port, shorts, portDrivenFreqs))
}

// TestPortDrivenPerforatedPlane repeats the check on a plane with a hole
// cut under the signal, and keeps the physics: the return current's
// detour around the hole raises the loop inductance at every frequency.
func TestPortDrivenPerforatedPlane(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	solid := planeImpedances(t, lay, segs, port, shorts, portDrivenFreqs)
	lay, segs, port, shorts = microstripOverPlane(t, geom.Hole{X0: 500e-6, Y0: -9e-6, X1: 1000e-6, Y1: 9e-6})
	holed := planeImpedances(t, lay, segs, port, shorts, portDrivenFreqs)
	checkPortDriven(t, portDrivenFreqs, holed)
	for i := range holed {
		for k, f := range portDrivenFreqs {
			_, ls := RL(solid[i][k], f)
			_, lh := RL(holed[i][k], f)
			if !(lh > ls) {
				t.Errorf("solver %d at %g Hz: hole did not raise L (%g -> %g)", i, f, ls, lh)
			}
		}
	}
}

// TestPortDrivenIterationPin pins the cost of the port-driven solve on
// the node-bound structure: at PlaneNW=16 and 20 GHz one GMRES under
// the constraint preconditioner converges in 22 iterations. The block
// upper-triangular factor alone took 52, and one solve per reduced
// node over 10,000.
func TestPortDrivenIterationPin(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	s, err := NewSolver(lay, segs, port, shorts, 2e10, Options{
		MaxPerSide: 2, PlaneNW: 16, Mode: ModeIterative,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, it, err := s.impedanceIterative(2e10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it <= 0 || it > 40 {
		t.Errorf("port-driven solve took %d GMRES iterations, want 1..40", it)
	}
}

// TestAutoModeKeepsPlanesOnFlatACA: a plane fine enough to pass the
// nested threshold stays on the flat-ACA operator in auto mode, where
// its port solve converges, while a plane-free layout of that size
// switches to nested bases.
func TestAutoModeKeepsPlanesOnFlatACA(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	s, err := NewSolver(lay, segs, port, shorts, 2e10, Options{
		MaxPerSide: 2, PlaneNW: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFilaments() < AutoNestedThreshold {
		t.Fatalf("only %d filaments; the plane no longer passes the nested threshold", s.NumFilaments())
	}
	if m := s.SolveModeInUse(); m != ModeIterative {
		t.Fatalf("auto mode picked %v for a plane, want iterative", m)
	}
	bl, bsegs, bport, bshorts := busLayout(2, 600e-6, 2e-6, 6e-6)
	bus, err := NewSolver(bl, bsegs, bport, bshorts, 2e10, Options{NW: 64, NT: 64})
	if err != nil {
		t.Fatal(err)
	}
	if bus.NumFilaments() < AutoNestedThreshold || bus.SolveModeInUse() != ModeNested {
		t.Fatalf("plane-free layout of %d filaments ran %v, want nested", bus.NumFilaments(), bus.SolveModeInUse())
	}
	if testing.Short() || raceEnabled {
		t.Skip("the 8k-filament solve takes seconds")
	}
	z, err := s.Impedance(2e10)
	if err != nil {
		t.Fatal(err)
	}
	if r, l := RL(z, 2e10); r <= 0 || l <= 0 {
		t.Errorf("non-physical plane extraction: R=%g L=%g", r, l)
	}
}
