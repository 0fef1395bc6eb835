package sparsify

import (
	"math"
	"math/rand"
	"testing"

	"inductance101/internal/extract"
	"inductance101/internal/matrix"
)

// toTriplet lifts a dense symmetric matrix into sparse form for the
// sparse-Cholesky passivity audit.
func toTriplet(d *matrix.Dense) *matrix.Triplet {
	t := matrix.NewTriplet(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if v := d.At(i, j); v != 0 {
				t.Add(i, j, v)
			}
		}
	}
	return t
}

// TestPropertyBlockDiagonalPassive: for random bus geometries and
// random sectionings, the block-diagonal sparsification must always
// stay positive definite (each block is a principal submatrix of a PD
// matrix). Audited by both the dense and the sparse Cholesky.
func TestPropertyBlockDiagonalPassive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		nSig := 2 + rng.Intn(4)
		pitch := (2 + 4*rng.Float64()) * 1e-6
		lay, segs := busOverGrid(nSig, pitch)
		lp := extract.InductanceMatrix(lay, segs, math.Inf(1), extract.GMDOptions{})
		if !matrix.IsPositiveDefinite(lp) {
			t.Fatalf("trial %d: reference L not PD", trial)
		}
		nSections := 1 + rng.Intn(4)
		sections := SectionsByCrossCoordinate(lay, segs, nSections)
		res := BlockDiagonal(lp, sections)
		if !res.PositiveDefinite {
			t.Fatalf("trial %d: block-diagonal (nSig=%d, sections=%d) lost PD, min eig %g",
				trial, nSig, nSections, res.MinEigen)
		}
		if !matrix.IsSparsePositiveDefinite(toTriplet(res.L).ToCSC()) {
			t.Fatalf("trial %d: sparse Cholesky disagrees with dense PD audit", trial)
		}
	}
}

// TestPropertyShellPassive: the shift-truncate shell method must keep
// the sparsified matrix passive across shell radii, per the Krauter &
// Pileggi guarantee the paper cites.
func TestPropertyShellPassive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		nSig := 2 + rng.Intn(3)
		pitch := (2 + 3*rng.Float64()) * 1e-6
		lay, segs := busOverGrid(nSig, pitch)
		lp := extract.InductanceMatrix(lay, segs, math.Inf(1), extract.GMDOptions{})
		if !matrix.IsPositiveDefinite(lp) {
			t.Fatalf("trial %d: reference L not PD", trial)
		}
		for _, mult := range []float64{2, 5, 20} {
			res := Shell(lay, segs, lp, mult*pitch)
			if !res.PositiveDefinite {
				t.Fatalf("trial %d: shell r0=%g*pitch lost PD, min eig %g",
					trial, mult, res.MinEigen)
			}
			if !matrix.IsSparsePositiveDefinite(toTriplet(res.L).ToCSC()) {
				t.Fatalf("trial %d: sparse Cholesky disagrees with dense PD audit", trial)
			}
		}
	}
}
