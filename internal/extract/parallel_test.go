package extract

import (
	"math"
	"testing"
)

func TestInductanceMatrixParallelMatchesSerial(t *testing.T) {
	l := makeBusLayout(8, 600e-6, 1.5e-6, 3e-6)
	segs := make([]int, 8)
	for i := range segs {
		segs[i] = i
	}
	serial := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{}, new(KernelCache))
	for _, workers := range []int{0, 1, 2, 7, 32} {
		par := InductanceMatrixParallel(l, segs, math.Inf(1), GMDOptions{}, workers, new(KernelCache))
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if par.At(i, j) != serial.At(i, j) {
					t.Fatalf("workers=%d: (%d,%d) %g != %g",
						workers, i, j, par.At(i, j), serial.At(i, j))
				}
			}
		}
	}
	// Windowed variant too.
	sw := InductanceMatrix(l, segs, 4e-6, GMDOptions{}, new(KernelCache))
	pw := InductanceMatrixParallel(l, segs, 4e-6, GMDOptions{}, 4, new(KernelCache))
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if pw.At(i, j) != sw.At(i, j) {
				t.Fatalf("windowed mismatch at (%d,%d)", i, j)
			}
		}
	}
}
