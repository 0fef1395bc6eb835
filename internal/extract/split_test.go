package extract

import (
	"math"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

func TestSplitWideWirePreservesLowFreqInductance(t *testing.T) {
	// §3: wide conductors must be split before computing inductance.
	// Sanity of the transform: with uniform (DC) current split, the
	// parallel combination of the strips' partial inductances must
	// reproduce the wide bar's own partial self inductance.
	length, width, thick := 1000e-6, 12e-6, 1e-6
	l := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: thick, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, Length: length, Width: width,
		Net: "w", NodeA: "a", NodeB: "b"})
	wide := SelfInductanceBar(length, width, thick)

	split, _ := geom.SplitWideSegments(l, 3e-6)
	segs := make([]int, len(split.Segments))
	for i := range segs {
		segs[i] = i
	}
	lp := InductanceMatrix(split, segs, math.Inf(1), GMDOptions{}, new(KernelCache))
	// Parallel combination: L_eff = 1 / sum_ij (Lp^-1)_ij.
	inv, err := matrix.Inverse(lp)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < inv.Rows(); i++ {
		for j := 0; j < inv.Cols(); j++ {
			sum += inv.At(i, j)
		}
	}
	eff := 1 / sum
	if math.Abs(eff-wide)/wide > 0.03 {
		t.Errorf("split-strip parallel L %g vs wide-bar L %g (%.1f%%)",
			eff, wide, 100*math.Abs(eff-wide)/wide)
	}
}
