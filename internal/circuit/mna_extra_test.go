package circuit

import (
	"math"
	"testing"
)

func TestAddRHSAccumulates(t *testing.T) {
	n := New()
	n.AddI("i", "0", "a", DC(2e-3))
	m := BuildSparse(n)
	b := make([]float64, m.Size())
	m.AddRHS(0, b)
	m.AddRHS(0, b)
	a, _ := n.NodeIndex("a")
	if math.Abs(b[a]-4e-3) > 1e-15 {
		t.Errorf("AddRHS did not accumulate: %g", b[a])
	}
}
