package circuit

import (
	"math"
	"testing"

	"inductance101/internal/matrix"
)

// solveJacobiCG solves the sparse DC system with Jacobi-preconditioned CG.
func solveJacobiCG(t *testing.T, a *matrix.CSR, b []float64) []float64 {
	t.Helper()
	pre, err := matrix.JacobiPrecond(a)
	if err != nil {
		t.Fatal(err)
	}
	x, res, err := matrix.PCG(matrix.CSROp{M: a}, b, matrix.PCGOptions{Tol: 1e-13, Precond: pre})
	if err != nil || !res.Converged {
		t.Fatalf("CG: %+v, %v", res, err)
	}
	return x
}

func TestBuildSparseDCDivider(t *testing.T) {
	n := New()
	n.AddV("v", "in", "0", DC(2))
	n.AddR("r1", "in", "mid", 1000)
	n.AddR("r2", "mid", "0", 1000)
	g, b, err := BuildSparseDC(n, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := solveJacobiCG(t, g.ToCSR(), b)
	mid, _ := n.NodeIndex("mid")
	if math.Abs(x[mid]-1) > 1e-4 {
		t.Errorf("divider mid = %g, want ~1 (penalty method)", x[mid])
	}
	in, _ := n.NodeIndex("in")
	if math.Abs(x[in]-2) > 1e-3 {
		t.Errorf("source node = %g, want ~2", x[in])
	}
}

func TestBuildSparseDCInductorShort(t *testing.T) {
	n := New()
	n.AddV("v", "in", "0", DC(1))
	n.AddL("l", "in", "mid", 3e-9)
	n.AddR("r", "mid", "0", 50)
	g, b, err := BuildSparseDC(n, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := solveJacobiCG(t, g.ToCSR(), b)
	mid, _ := n.NodeIndex("mid")
	if math.Abs(x[mid]-1) > 1e-3 {
		t.Errorf("inductor DC short broken in sparse path: mid = %g", x[mid])
	}
}

func TestBuildSparseDCISourceAtTime(t *testing.T) {
	n := New()
	n.AddR("r", "a", "0", 100)
	n.AddI("i", "0", "a", PWL{Times: []float64{0, 1e-9}, Values: []float64{0, 10e-3}})
	_, b0, err := BuildSparseDC(n, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, b1, err := BuildSparseDC(n, 1e-9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.NodeIndex("a")
	if b0[a] != 0 || math.Abs(b1[a]-10e-3) > 1e-15 {
		t.Errorf("time-evaluated source wrong: %g, %g", b0[a], b1[a])
	}
}

func TestBuildSparseDCRejectsMOSFETs(t *testing.T) {
	n := New()
	n.AddNMOS("m", "d", "g", "0", TypicalNMOS(1))
	if _, _, err := BuildSparseDC(n, 0, 0, 0); err == nil {
		t.Errorf("MOSFET netlist accepted")
	}
}
