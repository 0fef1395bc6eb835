package extract

// Filament-level kernel entry points: the bridge between the mesh
// lowering (internal/mesh) and the partial-inductance operators. All
// three solve paths — the dense oracle, the flat-ACA compressed
// operator and the nested-basis one — evaluate the same entry function
// over the same lowered filaments, so whether a filament came from a
// segment cross-section or a plane grid is invisible past this point.

import (
	"math"

	"inductance101/internal/geom"
	"inductance101/internal/mesh"
)

// FilamentElements converts lowered filaments into the geometric
// elements the hierarchical compression clusters and measures (span
// along the routing axis, cross coordinate, height, cross-section
// radius).
func FilamentElements(fils []mesh.Filament) []HElement {
	elems := make([]HElement, len(fils))
	for i := range fils {
		f := &fils[i]
		e := HElement{Dir: int(f.Dir), Z: f.Z, Rad: math.Hypot(f.W, f.T) / 2}
		if f.Dir == geom.DirX {
			e.A0, e.A1, e.Cross = f.X0, f.X0+f.Length, f.Y0
		} else {
			e.A0, e.A1, e.Cross = f.Y0, f.Y0+f.Length, f.X0
		}
		elems[i] = e
	}
	return elems
}

// FilamentEntry returns the partial-inductance entry function over
// lowered filaments. It evaluates the closed-form kernels directly:
// SelfInductanceBar on the diagonal and MutualFilaments (4 asinh + 4
// hypot) off it. The arguments are canonicalized to i <= j, so
// entry(i, j) and entry(j, i) are bit-equal.
//
// Orthogonal pairs return exactly zero (the Neumann integral vanishes
// by symmetry); collinear pairs (perpendicular distance zero, e.g.
// filaments in the same plane-grid track) are regularized with the
// mean self-GMD of the two cross-sections so the formula stays finite.
func FilamentEntry(fils []mesh.Filament) func(i, j int) float64 {
	return func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		fi := &fils[i]
		if i == j {
			return SelfInductanceBar(fi.Length, fi.W, fi.T)
		}
		fj := &fils[j]
		if fi.Dir != fj.Dir {
			return 0
		}
		var off, d float64
		if fi.Dir == geom.DirX {
			off = fj.X0 - fi.X0
			d = math.Hypot(fj.Y0-fi.Y0, fj.Z-fi.Z)
		} else {
			off = fj.Y0 - fi.Y0
			d = math.Hypot(fj.X0-fi.X0, fj.Z-fi.Z)
		}
		if d == 0 {
			d = SelfGMDFactor * (fi.W + fi.T + fj.W + fj.T) / 2
		}
		return MutualFilaments(fi.Length, fj.Length, off, d)
	}
}
