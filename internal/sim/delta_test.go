package sim

import (
	"fmt"
	"math"
	"testing"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// coupledBus is a bus of lines×segs RLC segments whose inductors are
// all mutually coupled, the shape of a PEEC(RLC) netlist: the partial
// inductance matrix is L_ij = sqrt(L_i L_j)·ρ^|i-j| (positive definite
// for |ρ| < 1), so the MNA carries a dense inductor block. Line 0 is
// driven by a pulse; the others are quiet victims.
func coupledBus(lines, segs int) *circuit.Netlist {
	n := circuit.New()
	n.AddV("vin", "in", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 0.05e-9, Rise: 0.1e-9, Width: 1e-9, Fall: 0.1e-9})
	var ind []int
	for l := 0; l < lines; l++ {
		node := func(s int) string { return fmt.Sprintf("b%d_%d", l, s) }
		if l == 0 {
			n.AddR("rdrv0", "in", node(0), 25)
		} else {
			n.AddR(fmt.Sprintf("rdrv%d", l), node(0), "0", 25)
		}
		for s := 0; s < segs; s++ {
			mid := fmt.Sprintf("m%d_%d", l, s)
			n.AddR(fmt.Sprintf("r%d_%d", l, s), node(s), mid, 2+0.3*float64(s))
			ind = append(ind, n.AddL(fmt.Sprintf("l%d_%d", l, s), mid, node(s+1), (0.4+0.05*float64(l+s))*1e-9))
			n.AddC(fmt.Sprintf("c%d_%d", l, s), node(s+1), "0", (20+3*float64(s))*1e-15)
		}
		n.AddC(fmt.Sprintf("cl%d", l), node(segs), "0", 50e-15)
	}
	const rho = 0.6
	for i := range ind {
		for j := i + 1; j < len(ind); j++ {
			li, lj := n.Inductors[ind[i]].L, n.Inductors[ind[j]].L
			n.AddM(fmt.Sprintf("k%d_%d", i, j), ind[i], ind[j], math.Sqrt(li*lj)*math.Pow(rho, float64(j-i)))
		}
	}
	return n
}

// TestDeltaFormTranMatchesDense runs the fixed-step sparse transient,
// trapezoidal and backward Euler, on a bus whose 36 inductors are all
// mutually coupled and checks every state against the dense TranFrom
// oracle.
func TestDeltaFormTranMatchesDense(t *testing.T) {
	n := coupledBus(6, 6)
	if len(n.Inductors) < 32 || len(n.Mutuals) != len(n.Inductors)*(len(n.Inductors)-1)/2 {
		t.Fatalf("bus has %d inductors and %d mutuals, want >= 32 all coupled", len(n.Inductors), len(n.Mutuals))
	}
	for _, m := range []Method{Trapezoidal, BackwardEuler} {
		opt := TranOptions{TStop: 1.5e-9, TStep: 5e-12, Method: m}
		sp, err := Tran(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		de, err := denseTran(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.Times) != len(de.Times) {
			t.Fatalf("method %d: %d sparse points, %d dense", m, len(sp.Times), len(de.Times))
		}
		for k := range sp.States {
			for i := range sp.States[k] {
				if d := math.Abs(sp.States[k][i] - de.States[k][i]); d > 1e-9 {
					t.Fatalf("method %d: state[%d][%d] sparse %g dense %g (diff %g)",
						m, k, i, sp.States[k][i], de.States[k][i], d)
				}
			}
		}
	}
}

// TestDeltaFormAdaptiveMatchesDense replays the sparse adaptive run's
// accepted time grid on the dense stepper: every accepted step is two
// trapezoidal half steps, so the dense replay from the dense operating
// point must land on the same states at every accepted time.
func TestDeltaFormAdaptiveMatchesDense(t *testing.T) {
	n := coupledBus(6, 6)
	opt := AdaptiveOptions{TStop: 1.5e-9, Tol: 1e-3}
	sp, err := TranAdaptive(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Steps == nil || sp.Steps.Accepted < 10 || sp.Steps.Rejected == 0 {
		t.Fatalf("adaptive run too tame to exercise several step sizes: %+v", sp.Steps)
	}
	if err := opt.setDefaults(); err != nil {
		t.Fatal(err)
	}
	m := circuit.Build(n)
	x, err := OP(m, 0, TranOptions{Gmin: opt.Gmin})
	if err != nil {
		t.Fatal(err)
	}
	s := newStepper(m, opt)
	sizes := map[float64]bool{}
	for k := 1; k < len(sp.Times); k++ {
		t0, h := sp.Times[k-1], sp.Times[k]-sp.Times[k-1]
		sizes[h] = true
		b0, f0 := s.sources(t0, x)
		xh, err := s.advance(x, b0, f0, t0, h/2)
		if err != nil {
			t.Fatal(err)
		}
		b1, f1 := s.sources(t0+h/2, xh)
		if x, err = s.advance(xh, b1, f1, t0+h/2, h/2); err != nil {
			t.Fatal(err)
		}
		if d := matrix.NormInf(matrix.Sub(x, sp.States[k])); d > 1e-9 {
			t.Fatalf("t=%g (step %d, h=%g): sparse and dense states differ by %g", sp.Times[k], k, h, d)
		}
	}
	if len(sizes) < 3 {
		t.Errorf("adaptive run used %d step sizes, want several", len(sizes))
	}
}
