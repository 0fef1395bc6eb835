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

// bothPaths runs fn once under a policy forcing the sparse path and
// once under one forcing the dense path, returning both results.
func bothPaths[T any](fn func(pol Policy) T) (sparse, dense T) {
	return fn(Policy{SparseThreshold: 1}), fn(Policy{SparseThreshold: -1})
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
		type out struct {
			res *TranResult
			err error
		}
		sp, de := bothPaths(func(pol Policy) out {
			opt.Policy = pol
			r, err := Tran(n, opt)
			return out{r, err}
		})
		if sp.err != nil || de.err != nil {
			t.Fatalf("trial %d: sparse err %v, dense err %v", trial, sp.err, de.err)
		}
		if len(sp.res.Times) != len(de.res.Times) {
			t.Fatalf("trial %d: time grids differ", trial)
		}
		for k := range sp.res.States {
			for i := range sp.res.States[k] {
				if d := math.Abs(sp.res.States[k][i] - de.res.States[k][i]); d > 1e-9 {
					t.Fatalf("trial %d: state[%d][%d] sparse %g dense %g (diff %g)",
						trial, k, i, sp.res.States[k][i], de.res.States[k][i], d)
				}
			}
		}
	}
}

func TestPropertyACSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		nodes := 4 + rng.Intn(16)
		n := randRLC(rng, nodes)
		probe := fmt.Sprintf("n%d", nodes)
		stim := ACStimulus{VSourceAmps: map[int]complex128{0: 1}}
		type out struct {
			pts []ACPoint
			err error
		}
		sp, de := bothPaths(func(pol Policy) out {
			p, err := ACSweepPolicy(n, probe, stim, 1e6, 1e11, 6, pol)
			return out{p, err}
		})
		if sp.err != nil || de.err != nil {
			t.Fatalf("trial %d: sparse err %v, dense err %v", trial, sp.err, de.err)
		}
		if len(sp.pts) != len(de.pts) {
			t.Fatalf("trial %d: point counts differ", trial)
		}
		for k := range sp.pts {
			scale := cmplx.Abs(de.pts[k].V)
			if scale < 1 {
				scale = 1
			}
			if d := cmplx.Abs(sp.pts[k].V - de.pts[k].V); d > 1e-9*scale {
				t.Fatalf("trial %d: point %d (%g Hz) sparse %v dense %v",
					trial, k, sp.pts[k].Freq, sp.pts[k].V, de.pts[k].V)
			}
		}
	}
}

func TestPropertyAdaptiveSparseTracksFixedStep(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := randRLC(rng, 10)
	sparse := Policy{SparseThreshold: 1}
	adapt, err := TranAdaptive(n, AdaptiveOptions{TStop: 2e-9, Tol: 1e-6, Policy: sparse})
	if err != nil {
		t.Fatal(err)
	}
	if adapt.Steps == nil || adapt.Steps.Accepted == 0 {
		t.Fatal("adaptive run reported no accepted steps")
	}
	fixed, err := Tran(n, TranOptions{TStop: 2e-9, TStep: 1e-12, Policy: sparse})
	if err != nil {
		t.Fatal(err)
	}
	av, err := Interp(adapt, "n10", fixed.Times)
	if err != nil {
		t.Fatal(err)
	}
	fv := fixed.MustV("n10")
	for k := range fv {
		if d := math.Abs(av[k] - fv[k]); d > 1e-3 {
			t.Fatalf("adaptive diverges from fine fixed-step at t=%g: %g vs %g",
				fixed.Times[k], av[k], fv[k])
		}
	}
}

// TestACPatternBuildScalesWithNNZ pins the cost of the AC pattern
// extraction to the number of structural nonzeros: quadrupling an RC
// chain's size must not cost anywhere near the 16x a quadratic scan
// would. (The historical implementation scanned the dense G and C,
// O(size^2) per sweep.)
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
			p := acPatternFromNetlist(n)
			if el := time.Since(start); el < best {
				best = el
			}
			if p.size == 0 {
				t.Fatal("empty pattern")
			}
		}
		return best
	}
	measure(500) // warm up allocator and caches
	small := measure(2000)
	big := measure(8000)
	// Linear scaling gives ~4x, map/sort overhead pushes it a little
	// higher; a quadratic scan gives 16x. Fail midway.
	if big > 12*small {
		t.Fatalf("pattern build scaled %v -> %v (>12x for 4x the nonzeros; quadratic?)", small, big)
	}
}
