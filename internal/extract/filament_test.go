package extract

import (
	"math"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/mesh"
)

// TestFilamentEntryOrthogonalExactlyZero pins the plane-mesh property
// the overlapping X/Y grids rely on: perpendicular filament pairs —
// including crossing ones — couple with exactly zero mutual partial
// inductance, not merely a small number.
func TestFilamentEntryOrthogonalExactlyZero(t *testing.T) {
	fils := []mesh.Filament{
		{Dir: geom.DirX, X0: 0, Y0: 0, Z: 1e-6, Length: 10e-6, W: 1e-6, T: 0.5e-6},
		{Dir: geom.DirY, X0: 5e-6, Y0: -5e-6, Z: 1e-6, Length: 10e-6, W: 1e-6, T: 0.5e-6},
		{Dir: geom.DirY, X0: 40e-6, Y0: 2e-6, Z: 3e-6, Length: 4e-6, W: 2e-6, T: 0.5e-6},
	}
	entry := FilamentEntry(fils)
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 0}, {2, 0}} {
		if v := entry(pair[0], pair[1]); v != 0 {
			t.Errorf("entry(%d, %d) = %g for orthogonal filaments, want exactly 0", pair[0], pair[1], v)
		}
	}
}

// TestFilamentEntrySymmetricAndFinite checks argument symmetry (both
// orders canonicalize to one kernel call, so the values are bit-equal)
// and the collinear d == 0 regularization.
func TestFilamentEntrySymmetricAndFinite(t *testing.T) {
	fils := []mesh.Filament{
		{Dir: geom.DirX, X0: 0, Y0: 0, Z: 1e-6, Length: 20e-6, W: 1e-6, T: 0.5e-6},
		{Dir: geom.DirX, X0: 0, Y0: 3e-6, Z: 1e-6, Length: 20e-6, W: 1e-6, T: 0.5e-6},
		// Collinear with filament 0: same track, offset along it.
		{Dir: geom.DirX, X0: 25e-6, Y0: 0, Z: 1e-6, Length: 20e-6, W: 1e-6, T: 0.5e-6},
	}
	entry := FilamentEntry(fils)
	for i := 0; i < len(fils); i++ {
		self := entry(i, i)
		if !(self > 0) || math.IsInf(self, 0) {
			t.Errorf("entry(%d, %d) = %g, want a positive finite self inductance", i, i, self)
		}
		for j := i + 1; j < len(fils); j++ {
			a, b := entry(i, j), entry(j, i)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("entry(%d, %d) = %g but entry(%d, %d) = %g", i, j, a, j, i, b)
			}
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Errorf("entry(%d, %d) = %g, want finite", i, j, a)
			}
		}
	}
	// The parallel pair at 3 um must couple more strongly than the
	// collinear pair a track-length away.
	if near, far := entry(0, 1), entry(0, 2); !(near > far) || !(far > 0) {
		t.Errorf("mutual ordering violated: parallel %g, collinear %g", near, far)
	}
}

// TestFilamentElementsGeometry checks the HElement mapping both ways
// round: routing span, cross coordinate, height and radius.
func TestFilamentElementsGeometry(t *testing.T) {
	fils := []mesh.Filament{
		{Dir: geom.DirX, X0: 2e-6, Y0: 7e-6, Z: 1e-6, Length: 10e-6, W: 3e-6, T: 4e-6},
		{Dir: geom.DirY, X0: 5e-6, Y0: -1e-6, Z: 2e-6, Length: 8e-6, W: 1e-6, T: 0.5e-6},
	}
	elems := FilamentElements(fils)
	if e := elems[0]; e.Dir != int(geom.DirX) || e.A0 != 2e-6 || e.A1 != 12e-6 || e.Cross != 7e-6 || e.Z != 1e-6 {
		t.Errorf("X element mapped to %+v", e)
	}
	if e := elems[1]; e.Dir != int(geom.DirY) || e.A0 != -1e-6 || e.A1 != 7e-6 || e.Cross != 5e-6 || e.Z != 2e-6 {
		t.Errorf("Y element mapped to %+v", e)
	}
	if want := math.Hypot(3e-6, 4e-6) / 2; elems[0].Rad != want {
		t.Errorf("radius %g, want %g", elems[0].Rad, want)
	}
}
