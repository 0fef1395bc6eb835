package extract

import (
	"math"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
	"inductance101/internal/mesh"
)

func TestSplitWideWirePreservesLowFreqInductance(t *testing.T) {
	// §3: wide conductors must be split before computing inductance;
	// the filament mesh does the split. Sanity of the transform: with
	// uniform (DC) current split, the parallel combination of the
	// filaments' partial inductances must reproduce the wide bar's own
	// partial self inductance.
	length, width, thick := 1000e-6, 12e-6, 1e-6
	l := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: thick, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	l.AddSegment(geom.Segment{Layer: 0, Dir: geom.DirX, Length: length, Width: width,
		Net: "w", NodeA: "a", NodeB: "b"})
	wide := SelfInductanceBar(length, width, thick)

	m, err := mesh.Build(l, []int{0}, nil, 1e6, mesh.Options{NW: 4, NT: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.Filaments)
	if n != 4 {
		t.Fatalf("mesh split the bar into %d filaments, want 4", n)
	}
	entry := FilamentEntry(m.Filaments)
	lp := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lp.Set(i, j, entry(i, j))
		}
	}
	// Parallel combination: L_eff = 1 / (1ᵀ Lp⁻¹ 1).
	ch, err := matrix.FactorCholesky(lp)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	x, err := ch.Solve(ones)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	eff := 1 / sum
	if math.Abs(eff-wide)/wide > 0.03 {
		t.Errorf("split-filament parallel L %g vs wide-bar L %g (%.1f%%)",
			eff, wide, 100*math.Abs(eff-wide)/wide)
	}
}
