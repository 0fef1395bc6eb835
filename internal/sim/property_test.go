package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"inductance101/internal/circuit"
)

// randRLC builds a random RLC ladder driven by a pulse source: series
// R/L elements down a chain of nodes, a capacitor from every node to
// ground, and a sprinkling of mutual couplings — the element mix of the
// paper's interconnect models, with values in physically plausible
// ranges so the systems are well-conditioned but not trivial.
func randRLC(rng *rand.Rand, nodes int) *circuit.Netlist {
	n := circuit.New()
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	n.AddV("vin", name(0), "0", circuit.Pulse{
		V1: 0, V2: 1, Delay: 0.1e-9, Rise: 0.1e-9, Width: 1e-9, Fall: 0.1e-9,
	})
	var inductors []int
	for i := 0; i < nodes; i++ {
		a, b := name(i), name(i+1)
		if rng.Float64() < 0.5 {
			n.AddR(fmt.Sprintf("r%d", i), a, b, 1+9*rng.Float64())
		} else {
			n.AddR(fmt.Sprintf("r%d", i), a, b, 0.5+rng.Float64())
			li := n.AddL(fmt.Sprintf("l%d", i), b, name(i+1)+"x", (0.1+rng.Float64())*1e-9)
			inductors = append(inductors, li)
			// Continue the chain from the inductor's far node.
			n.AddR(fmt.Sprintf("rl%d", i), name(i+1)+"x", b, 1e3)
		}
		n.AddC(fmt.Sprintf("c%d", i), b, "0", (1+9*rng.Float64())*1e-15)
	}
	// Random mutual couplings between inductor pairs (|k| < 0.5 keeps
	// every 2x2 inductance block positive definite).
	for p := 0; p+1 < len(inductors); p += 2 {
		la, lb := inductors[p], inductors[p+1]
		k := 0.4 * (2*rng.Float64() - 1)
		m := k * math.Sqrt(n.Inductors[la].L*n.Inductors[lb].L)
		n.AddM(fmt.Sprintf("k%d", p), la, lb, m)
	}
	n.AddR("rload", name(nodes), "0", 50)
	return n
}

func TestPropertyTranSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		nodes := 4 + rng.Intn(20)
		n := randRLC(rng, nodes)
		opt := TranOptions{TStop: 2e-9, TStep: 20e-12}
		if trial%2 == 1 {
			opt.Method = BackwardEuler
		}
		sp, spErr := Tran(n, opt)
		de, deErr := denseTran(n, opt)
		if spErr != nil || deErr != nil {
			t.Fatalf("trial %d: sparse err %v, dense err %v", trial, spErr, deErr)
		}
		if len(sp.Times) != len(de.Times) {
			t.Fatalf("trial %d: time grids differ", trial)
		}
		for k := range sp.States {
			for i := range sp.States[k] {
				if d := math.Abs(sp.States[k][i] - de.States[k][i]); d > 1e-9 {
					t.Fatalf("trial %d: state[%d][%d] sparse %g dense %g (diff %g)",
						trial, k, i, sp.States[k][i], de.States[k][i], d)
				}
			}
		}
	}
}

// logGrid returns the log-spaced frequencies from fStart to fStop
// inclusive, at least pointsPerDecade per decade.
func logGrid(fStart, fStop float64, pointsPerDecade int) []float64 {
	decades := math.Log10(fStop / fStart)
	nPts := int(decades*float64(pointsPerDecade)) + 1
	fs := make([]float64, nPts+1)
	for k := range fs {
		fs[k] = fStart * math.Pow(10, decades*float64(k)/float64(nPts))
	}
	return fs
}

func TestPropertyACSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		nodes := 4 + rng.Intn(16)
		n := randRLC(rng, nodes)
		probe := fmt.Sprintf("n%d", nodes)
		idx, err := n.NodeIndex(probe)
		if err != nil {
			t.Fatal(err)
		}
		stim := ACStimulus{VSourceAmps: map[int]complex128{0: 1}}
		for k, f := range logGrid(1e6, 1e11, 6) {
			xs, err := AC(n, 2*math.Pi*f, stim)
			if err != nil {
				t.Fatalf("trial %d: sparse solve at %g Hz: %v", trial, f, err)
			}
			x, err := denseAC(n, 2*math.Pi*f, stim)
			if err != nil {
				t.Fatalf("trial %d: dense solve at %g Hz: %v", trial, f, err)
			}
			got, want := xs[idx], x[idx]
			scale := cmplx.Abs(want)
			if scale < 1 {
				scale = 1
			}
			if d := cmplx.Abs(got - want); d > 1e-9*scale {
				t.Fatalf("trial %d: point %d (%g Hz) sparse %v dense %v",
					trial, k, f, got, want)
			}
		}
	}
}

// TestTranRoutesOnLinearity pins the solver routing: a linear netlist
// of any size runs the factor-once sparse transient, and a netlist with
// MOSFETs runs the sparse Newton transient, each bit for bit.
func TestTranRoutesOnLinearity(t *testing.T) {
	rc := circuit.New()
	rc.AddV("vin", "n0", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 0.1e-9, Rise: 0.1e-9, Width: 1e-9, Fall: 0.1e-9})
	for i := 0; i < 4; i++ {
		a, b := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)
		rc.AddR("r"+a, a, b, 100)
		rc.AddC("c"+b, b, "0", 10e-15)
	}
	opt := TranOptions{TStop: 2e-9, TStep: 10e-12}
	got, err := Tran(rc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.setDefaults(); err != nil {
		t.Fatal(err)
	}
	want, err := tranSparse(rc, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameStates(t, "Tran", got, want)

	inv := switchingInverter()
	iopt := TranOptions{TStop: 1e-9, TStep: 5e-12}
	res, err := Tran(inv, iopt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewtonIters == 0 {
		t.Error("MOSFET netlist ran no Newton iterations")
	}
	if err := iopt.setDefaults(); err != nil {
		t.Fatal(err)
	}
	wantN, err := tranNewton(inv, iopt)
	if err != nil {
		t.Fatal(err)
	}
	sameStates(t, "Tran", res, wantN)
}

// sameStates fails unless two transient results carry bit-identical
// time grids and states.
func sameStates(t *testing.T, name string, got, want *TranResult) {
	t.Helper()
	if len(got.Times) != len(want.Times) {
		t.Fatalf("%s: %d time points, sparse path %d", name, len(got.Times), len(want.Times))
	}
	for k := range got.States {
		if got.Times[k] != want.Times[k] {
			t.Fatalf("%s: time %d is %g, sparse path %g", name, k, got.Times[k], want.Times[k])
		}
		for i := range got.States[k] {
			if got.States[k][i] != want.States[k][i] {
				t.Fatalf("%s: state[%d][%d] %g, sparse path %g", name, k, i, got.States[k][i], want.States[k][i])
			}
		}
	}
}

// TestACPatternBuildScalesWithNNZ pins the cost of the AC pencil's
// assembly (BuildSparse's freeze onto the union pattern, then the
// per-position derivation) to the number of structural nonzeros:
// quadrupling an RC chain's size must not cost anywhere near the 16x a
// quadratic scan would. (The historical implementation scanned the
// dense G and C, O(size^2) per sweep.)
func TestACPatternBuildScalesWithNNZ(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	chain := func(nodes int) *circuit.Netlist {
		n := circuit.New()
		n.AddV("vin", "n0", "0", circuit.DC(1))
		for i := 0; i < nodes; i++ {
			n.AddR(fmt.Sprintf("r%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), 1)
			n.AddC(fmt.Sprintf("c%d", i), fmt.Sprintf("n%d", i+1), "0", 1e-15)
		}
		return n
	}
	measure := func(nodes int) time.Duration {
		n := chain(nodes)
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			a := acMatrix(n, 1)
			if el := time.Since(start); el < best {
				best = el
			}
			if a.NNZ() == 0 {
				t.Fatal("empty pattern")
			}
		}
		return best
	}
	measure(500) // warm up allocator and caches
	small := measure(2000)
	big := measure(8000)
	// Linear scaling gives ~4x, allocation and cache effects push it a
	// little higher; a quadratic scan gives 16x. Fail midway.
	if big > 12*small {
		t.Fatalf("pattern build scaled %v -> %v (>12x for 4x the nonzeros; quadratic?)", small, big)
	}
}
