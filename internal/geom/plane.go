package geom

import "fmt"

// Hole is a rectangular perforation cut out of a conductor plane, in
// absolute plane coordinates. Power and ground planes on real chips and
// superconductor circuits are riddled with such openings (via farms,
// moats, flux-trapping perforations); the return-current detour they
// force raises the loop inductance of signals routed above them, which
// is exactly the effect the mesh lowering must preserve.
type Hole struct {
	X0, Y0, X1, Y1 float64 // X0 < X1, Y0 < Y1
}

// Contains reports whether the point (x, y) lies strictly inside the
// hole. Points on the hole boundary count as conductor, so a mesh node
// exactly on the rim stays electrically connected.
func (h Hole) Contains(x, y float64) bool {
	return x > h.X0 && x < h.X1 && y > h.Y0 && y < h.Y1
}

// Plane is a rectangular conductor plane on one layer — a ground or
// power plane, a shield sheet, or a superconductor film — optionally
// perforated by rectangular holes. Unlike a Segment it carries current
// in both routing directions at once; the mesh layer (internal/mesh)
// lowers it into overlapping X- and Y-directed filament grids with
// node stitching at the grid intersections, FastHenry's uniform-plane
// model.
//
// Electrical contact is made through edge node rails: a non-empty rail
// name merges every mesh node on that plane edge onto the named
// electrical node, so a plane used as a return path is tied into the
// circuit exactly like a segment end. Edges with an empty rail name
// float (no external connection there).
type Plane struct {
	Layer          int     // index into the layout's layer table
	X0, Y0, X1, Y1 float64 // plane extent, X0 < X1 and Y0 < Y1
	Net            string  // net name ("GND", "VDD", ...)
	// NodeLeft, NodeRight, NodeBottom, NodeTop name the edge rails:
	// left/right are the x = X0 / x = X1 edges, bottom/top the
	// y = Y0 / y = Y1 edges. Empty means the edge floats.
	NodeLeft, NodeRight, NodeBottom, NodeTop string
	Holes                                    []Hole
}

// Rails returns the non-empty edge rail node names in left, right,
// bottom, top order.
func (p *Plane) Rails() []string {
	var out []string
	for _, n := range []string{p.NodeLeft, p.NodeRight, p.NodeBottom, p.NodeTop} {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// AddPlane appends p and returns its index.
func (l *Layout) AddPlane(p Plane) int {
	if p.Layer < 0 || p.Layer >= len(l.Layers) {
		panic(fmt.Sprintf("geom: plane layer %d out of range", p.Layer))
	}
	if p.X1 <= p.X0 || p.Y1 <= p.Y0 {
		panic(fmt.Sprintf("geom: plane with empty extent [%g,%g]x[%g,%g]", p.X0, p.X1, p.Y0, p.Y1))
	}
	l.Planes = append(l.Planes, p)
	return len(l.Planes) - 1
}

// validatePlanes checks the plane-specific structural invariants; it is
// called from Layout.Validate so a layout with planes passes through the
// same single gate as one without.
func (l *Layout) validatePlanes() error {
	for i := range l.Planes {
		p := &l.Planes[i]
		if p.Layer < 0 || p.Layer >= len(l.Layers) {
			return fmt.Errorf("geom: plane %d layer %d out of range", i, p.Layer)
		}
		if p.X1 <= p.X0 || p.Y1 <= p.Y0 {
			return fmt.Errorf("geom: plane %d has empty extent [%g,%g]x[%g,%g]", i, p.X0, p.X1, p.Y0, p.Y1)
		}
		if len(p.Rails()) == 0 {
			return fmt.Errorf("geom: plane %d has no edge node rail (all four edges float)", i)
		}
		for hi, h := range p.Holes {
			if h.X1 <= h.X0 || h.Y1 <= h.Y0 {
				return fmt.Errorf("geom: plane %d hole %d has empty extent", i, hi)
			}
			if h.X0 < p.X0 || h.X1 > p.X1 || h.Y0 < p.Y0 || h.Y1 > p.Y1 {
				return fmt.Errorf("geom: plane %d hole %d extends outside the plane", i, hi)
			}
		}
	}
	return nil
}
