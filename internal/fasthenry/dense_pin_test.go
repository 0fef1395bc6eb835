package fasthenry

import (
	"runtime"
	"testing"
)

// TestDenseExtractionPinned pins the bits of the dense oracle path on
// two structures whose filaments run in both directions: the clockTree
// fixture's alternative shorts (ImpedanceEachShort at the loop flow's
// two ladder frequencies) and a Sweep of the PlaneNW=16 microstrip,
// whose plane lowers to X and Y filament grids. Go fuses multiply-adds
// on arm64 and other targets but not on amd64, so the hashes hold on
// amd64 only.
func TestDenseExtractionPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64, where Go never fuses multiply-adds")
	}
	freqs := []float64{2e8, 1e10}

	t.Run("clock/shorts", func(t *testing.T) {
		l, segs, port, base, alts := clockTree()
		s, err := NewSolver(l, segs, port, base, 1e10, Options{NW: 3, NT: 3, Mode: ModeDense})
		if err != nil {
			t.Fatal(err)
		}
		zs, err := s.ImpedanceEachShort(freqs, alts)
		if err != nil {
			t.Fatal(err)
		}
		var z []complex128
		for _, zf := range zs {
			z = append(z, zf...)
		}
		const want = 0x0bf89c7e7b38d910
		if got := hashComplex(z); got != want {
			t.Errorf("%d filaments: ImpedanceEachShort hash %#x, want %#x", s.NumFilaments(), got, uint64(want))
		}
	})

	t.Run("plane16/sweep", func(t *testing.T) {
		l, segs, port, shorts := microstripOverPlane(t)
		s, err := NewSolver(l, segs, port, shorts, 20e9, Options{
			MaxPerSide: 2, PlaneNW: 16, Mode: ModeDense,
			Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.Sweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		z := make([]complex128, len(pts))
		for i, p := range pts {
			z[i] = p.Z
		}
		const want = 0x5387a4fed605bd3e
		if got := hashComplex(z); got != want {
			t.Errorf("%d filaments: Sweep hash %#x, want %#x", s.NumFilaments(), got, uint64(want))
		}
	})
}
