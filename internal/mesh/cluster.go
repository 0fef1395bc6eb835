package mesh

import "inductance101/internal/geom"

// ClusterFilaments builds spatial cluster trees over a lowered filament
// set, one root per routing direction present, through geom.ClusterItems:
// the bisection coordinates are a filament's centre along its routing
// axis, its cross coordinate and its height. Element i of the trees is
// fils[i], and the result is deterministic at every worker count.
func ClusterFilaments(fils []Filament, leafSize, workers int) []*geom.ClusterNode {
	dir := func(i int) geom.Direction { return fils[i].Dir }
	coord := func(dim, i int) float64 {
		f := &fils[i]
		switch dim {
		case 0:
			if f.Dir == geom.DirX {
				return f.X0 + f.Length/2
			}
			return f.Y0 + f.Length/2
		case 1:
			if f.Dir == geom.DirX {
				return f.Y0
			}
			return f.X0
		default:
			return f.Z
		}
	}
	return geom.ClusterItems(len(fils), dir, coord, leafSize, workers)
}
