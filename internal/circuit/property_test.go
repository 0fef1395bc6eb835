package circuit

import (
	"fmt"
	"math/rand"
	"testing"

	"inductance101/internal/matrix"
)

// randResistiveGrid builds a random resistive mesh with sources, the
// netlist class BuildSparseDC is specified over.
func randResistiveGrid(rng *rand.Rand, w, h int) *Netlist {
	n := New()
	name := func(x, y int) string { return fmt.Sprintf("g%d_%d", x, y) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				n.AddR(fmt.Sprintf("rx%d_%d", x, y), name(x, y), name(x+1, y), 0.5+rng.Float64())
			}
			if y+1 < h {
				n.AddR(fmt.Sprintf("ry%d_%d", x, y), name(x, y), name(x, y+1), 0.5+rng.Float64())
			}
		}
	}
	// A few inductors (DC shorts), loads and a supply.
	n.AddL("lpkg", name(0, 0), "pkg", 1e-9)
	n.AddV("vdd", "pkg", "0", DC(1.8))
	for k := 0; k < 3; k++ {
		n.AddI(fmt.Sprintf("load%d", k), name(rng.Intn(w), rng.Intn(h)), "0",
			DC(1e-3*(1+rng.Float64())))
	}
	return n
}

// TestPropertyBuildSparseMatchesDense: the sparse MNA assembly must
// produce exactly the entries of the same stamping walk accumulated
// into dense matrices — same order, bit-identical values. The dense
// oracles of the simulator's tests rely on this.
func TestPropertyBuildSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		n := New()
		nm := func(i int) string { return fmt.Sprintf("n%d", i) }
		nodes := 3 + rng.Intn(12)
		var inds []int
		for i := 0; i < nodes; i++ {
			n.AddR(fmt.Sprintf("r%d", i), nm(i), nm(i+1), 1+rng.Float64())
			n.AddC(fmt.Sprintf("c%d", i), nm(i+1), "0", 1e-15*(1+rng.Float64()))
			if rng.Float64() < 0.4 {
				inds = append(inds, n.AddL(fmt.Sprintf("l%d", i), nm(i+1), nm(i+100), 1e-9))
				n.AddR(fmt.Sprintf("rr%d", i), nm(i+100), "0", 10)
			}
		}
		if len(inds) >= 2 {
			la, lb := inds[0], inds[1]
			n.AddM("m0", la, lb, 0.2e-9)
		}
		if len(inds) >= 2 {
			n.AddKGroup("kg", []int{inds[len(inds)-2], inds[len(inds)-1]},
				[][]float64{{1e-9, 0.1e-9}, {0.1e-9, 1e-9}})
		}
		n.AddV("v0", nm(0), "0", DC(1))
		n.AddI("i0", nm(nodes), "0", DC(1e-3))

		size := n.Size()
		g, c := matrix.NewDense(size, size), matrix.NewDense(size, size)
		stampLinear(n, g.Add, c.Add, kMembers(n))
		sparse := BuildSparse(n)
		if sparse.Size() != size {
			t.Fatalf("trial %d: size %d, want %d", trial, sparse.Size(), size)
		}
		dg, dc := sparse.G.ToDense(), sparse.C.ToDense()
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if g.At(i, j) != dg.At(i, j) {
					t.Fatalf("trial %d: G(%d,%d) dense %g sparse %g", trial, i, j, g.At(i, j), dg.At(i, j))
				}
				if c.At(i, j) != dc.At(i, j) {
					t.Fatalf("trial %d: C(%d,%d) dense %g sparse %g", trial, i, j, c.At(i, j), dc.At(i, j))
				}
			}
		}
	}
}

// TestPropertyBuildSparseDCIsSPD: the penalty-method DC system must be
// symmetric positive definite for any resistive grid — that is the
// contract that lets CG and the sparse Cholesky solve it.
func TestPropertyBuildSparseDCIsSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		w, h := 2+rng.Intn(5), 2+rng.Intn(5)
		n := randResistiveGrid(rng, w, h)
		g, b, err := BuildSparseDC(n, 0, 0, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(b) != n.NumNodes() {
			t.Fatalf("trial %d: rhs length %d, want %d", trial, len(b), n.NumNodes())
		}
		a := g.ToCSC()
		// Symmetry.
		d := matrix.CSCToDense(a)
		if !d.IsSymmetric(0) {
			t.Fatalf("trial %d: DC system not symmetric", trial)
		}
		// Positive definiteness via the sparse Cholesky itself.
		if !matrix.IsSparsePositiveDefinite(a) {
			t.Fatalf("trial %d: DC system not positive definite", trial)
		}
	}
}
