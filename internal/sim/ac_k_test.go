package sim

import (
	"math/cmplx"
	"testing"

	"inductance101/internal/circuit"
)

func TestACWithKGroupMatchesLForm(t *testing.T) {
	// The K element must be equivalent to the L form in AC analysis too
	// (the paper notes K needs "a special circuit simulator" — ours
	// handles it in every analysis).
	la, lb, m := 2e-9, 3e-9, 1e-9
	det := la*lb - m*m
	k := [][]float64{{lb / det, -m / det}, {-m / det, la / det}}
	build := func(useK bool) (*circuit.Netlist, int) {
		n := circuit.New()
		vi := n.AddV("v", "p", "0", circuit.DC(0))
		n.AddR("r", "p", "a", 5)
		var iA, iB int
		if useK {
			iA = n.AddL("la", "a", "oa", 0)
			iB = n.AddL("lb", "a", "ob", 0)
			n.AddKGroup("k", []int{iA, iB}, k)
		} else {
			iA = n.AddL("la", "a", "oa", la)
			iB = n.AddL("lb", "a", "ob", lb)
			n.AddM("m", iA, iB, m)
		}
		n.AddR("ra", "oa", "0", 50)
		n.AddR("rb", "ob", "0", 75)
		return n, vi
	}
	for _, f := range []float64{1e8, 1e9, 1e10} {
		nl, vl := build(false)
		zl, err := InputImpedance(nl, vl, f)
		if err != nil {
			t.Fatal(err)
		}
		nk, vk := build(true)
		zk, err := InputImpedance(nk, vk, f)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(zl-zk)/cmplx.Abs(zl) > 1e-9 {
			t.Errorf("f=%g: K form Z %v vs L form %v", f, zk, zl)
		}
	}
}

// TestACKeepsZeroSumPositions: the AC pencil keeps every position G or
// C stamps, even those whose stamps cancel exactly (here the two
// branch-row couplings of a mutual and its negative twin), while the
// transient's companion matrix drops them. The factor's pattern, and so
// its rounding, depends on which positions are stored.
func TestACKeepsZeroSumPositions(t *testing.T) {
	n := circuit.New()
	n.AddV("v", "a", "0", circuit.DC(1))
	la := n.AddL("la", "a", "b", 2e-9)
	lb := n.AddL("lb", "b", "0", 3e-9)
	n.AddM("m", la, lb, 1e-9)
	n.AddM("mneg", la, lb, -1e-9)
	n.AddR("rb", "b", "0", 1)
	ac, a := acMatrix(n, 1), companion(circuit.BuildSparse(n), 1)
	if ac.NNZ() != a.NNZ()+2 {
		t.Errorf("AC pencil stores %d positions, companion %d: want the 2 cancelled couplings kept in AC only", ac.NNZ(), a.NNZ())
	}
}
