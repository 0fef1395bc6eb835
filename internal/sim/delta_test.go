package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"inductance101/internal/circuit"
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
// mutually coupled and checks every state against the dense oracle.
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

// TestSharedMNAConcurrentDerivations derives the DC, companion and AC
// matrices of one frozen SparseMNA from several goroutines at once and
// solves the operating point on each; every result must match a serial
// run bit for bit. Run under -race it checks that the frozen pattern is
// only read.
func TestSharedMNAConcurrentDerivations(t *testing.T) {
	n := circuit.New()
	n.AddV("v", "in", "0", circuit.DC(1))
	n.AddR("r1", "in", "a", 10)
	la := n.AddL("la", "a", "oa", 2e-9)
	lb := n.AddL("lb", "a", "ob", 3e-9)
	n.AddM("m", la, lb, 1e-9)
	n.AddC("ca", "oa", "0", 0.2e-12)
	n.AddR("ra", "oa", "0", 500)
	n.AddR("rb", "ob", "0", 500)
	sm := circuit.BuildSparse(n)
	derive := func() []float64 {
		var out []float64
		gGmin(sm).Each(func(_, _ int, v float64) { out = append(out, v) })
		companion(sm, 2e12).Each(func(_, _ int, v float64) { out = append(out, v) })
		circuit.Derive(sm, true, func(i, j int, g, c float64) complex128 {
			return complex(sm.WithGmin(i, j, g, gmin), 1e9*c)
		}).Each(func(_, _ int, v complex128) { out = append(out, real(v), imag(v)) })
		x, err := opSparse(sm, 0)
		if err != nil {
			t.Error(err)
		}
		return append(out, x...)
	}
	want := derive()
	const workers = 4
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = derive()
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if len(g) != len(want) {
			t.Fatalf("worker %d: %d values, want %d", w, len(g), len(want))
		}
		for k := range g {
			if math.Float64bits(g[k]) != math.Float64bits(want[k]) {
				t.Fatalf("worker %d: value %d is %g, serial %g", w, k, g[k], want[k])
			}
		}
	}
}
