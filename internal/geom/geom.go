// Package geom models on-chip interconnect geometry: metal layers,
// axis-aligned rectangular conductor segments, conductor planes with
// perforation holes, vias, and the layouts the PEEC extractor
// (internal/extract), the filament lowering (internal/mesh), the field
// solver (internal/fasthenry) and the topology generators
// (internal/grid) operate on.
//
// Conventions: x and y are routing-plane coordinates, z is the vertical
// stack axis; all lengths are metres. Segments carry the names of their
// electrical end nodes so a layout maps directly onto a circuit netlist.
package geom

import (
	"fmt"
	"math"
)

// Direction is a routing direction for a segment's current flow.
type Direction int

// Segment directions. Mutual inductance exists only between segments
// with parallel current (DirX with DirX, DirY with DirY); orthogonal
// pairs have zero mutual by symmetry of the Neumann integral.
const (
	DirX Direction = iota
	DirY
)

// String returns "X" or "Y".
func (d Direction) String() string {
	if d == DirX {
		return "X"
	}
	return "Y"
}

// Layer describes one metal layer of the stack.
type Layer struct {
	Name      string
	Index     int     // 0 = lowest metal
	Z         float64 // bottom of the layer above substrate, m
	Thickness float64 // metal thickness, m
	SheetRho  float64 // sheet resistance, ohm/square
	// HBelow is the dielectric height to the conducting plane (or
	// previous layer) below, used by the capacitance model.
	HBelow float64
}

// Segment is a straight rectangular conductor on one layer.
//
// The segment occupies length Length along Dir starting at (X0, Y0)
// (centre-line coordinates), with cross-section Width x layer thickness.
// NodeA is the electrical node at (X0, Y0); NodeB the node at the far
// end.
type Segment struct {
	Layer  int // index into the layout's layer table
	Dir    Direction
	X0, Y0 float64
	Length float64
	Width  float64
	Net    string // net name ("VDD", "GND", "clk", ...)
	NodeA  string
	NodeB  string
}

// End returns the far-end centre-line coordinates.
func (s *Segment) End() (x, y float64) {
	if s.Dir == DirX {
		return s.X0 + s.Length, s.Y0
	}
	return s.X0, s.Y0 + s.Length
}

// AxisSpan returns the segment's [lo, hi] interval along its own
// direction axis.
func (s *Segment) AxisSpan() (lo, hi float64) {
	if s.Dir == DirX {
		return s.X0, s.X0 + s.Length
	}
	return s.Y0, s.Y0 + s.Length
}

// CrossCoord returns the segment's centre-line coordinate on the axis
// perpendicular to its direction.
func (s *Segment) CrossCoord() float64 {
	if s.Dir == DirX {
		return s.Y0
	}
	return s.X0
}

// BBox returns the axis-aligned bounding box of the metal (including
// width).
func (s *Segment) BBox() (x0, y0, x1, y1 float64) {
	if s.Dir == DirX {
		return s.X0, s.Y0 - s.Width/2, s.X0 + s.Length, s.Y0 + s.Width/2
	}
	return s.X0 - s.Width/2, s.Y0, s.X0 + s.Width/2, s.Y0 + s.Length
}

// Via is a vertical connection between two layers at a point.
type Via struct {
	X, Y       float64
	LayerLo    int
	LayerHi    int
	Resistance float64 // ohm
	Net        string
	NodeLo     string // node on the lower layer
	NodeHi     string // node on the upper layer
}

// Layout is a collection of layers, segments, conductor planes and
// vias.
type Layout struct {
	Layers   []Layer
	Segments []Segment
	Planes   []Plane
	Vias     []Via
}

// NewLayout returns an empty layout with the given layer stack.
func NewLayout(layers []Layer) *Layout {
	return &Layout{Layers: layers}
}

// AddSegment appends s and returns its index.
func (l *Layout) AddSegment(s Segment) int {
	if s.Layer < 0 || s.Layer >= len(l.Layers) {
		panic(fmt.Sprintf("geom: segment layer %d out of range", s.Layer))
	}
	if s.Length <= 0 || s.Width <= 0 {
		panic(fmt.Sprintf("geom: segment with non-positive length %g or width %g", s.Length, s.Width))
	}
	l.Segments = append(l.Segments, s)
	return len(l.Segments) - 1
}

// AddVia appends v and returns its index.
func (l *Layout) AddVia(v Via) int {
	l.Vias = append(l.Vias, v)
	return len(l.Vias) - 1
}

// SegmentsOnNet returns the indices of segments whose Net equals net.
func (l *Layout) SegmentsOnNet(net string) []int {
	var out []int
	for i := range l.Segments {
		if l.Segments[i].Net == net {
			out = append(out, i)
		}
	}
	return out
}

// Nets returns the distinct net names in deterministic first-seen order.
func (l *Layout) Nets() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range l.Segments {
		n := l.Segments[i].Net
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// TotalWireLength returns the summed segment length, a quick layout
// sanity metric.
func (l *Layout) TotalWireLength() float64 {
	s := 0.0
	for i := range l.Segments {
		s += l.Segments[i].Length
	}
	return s
}

// Z returns the vertical centre coordinate of a segment: layer z plus
// half the metal thickness.
func (l *Layout) Z(segIdx int) float64 {
	s := &l.Segments[segIdx]
	ly := l.Layers[s.Layer]
	return ly.Z + ly.Thickness/2
}

// ParallelGeometry describes the relative placement of two parallel
// segments, in the form the partial-inductance formulas need: the
// centre-to-centre perpendicular distance, the longitudinal offset of
// b's start relative to a's start along the shared axis, and both
// lengths.
type ParallelGeometry struct {
	La, Lb float64 // lengths
	S      float64 // longitudinal offset of b's start from a's start
	D      float64 // centre-to-centre perpendicular distance (>= 0)
}

// Parallel reports whether segments i and j run in the same direction
// and, if so, returns their relative geometry. Vertical (z) separation
// between layers is folded into D as the Euclidean cross-axis distance.
func (l *Layout) Parallel(i, j int) (ParallelGeometry, bool) {
	a, b := &l.Segments[i], &l.Segments[j]
	if a.Dir != b.Dir {
		return ParallelGeometry{}, false
	}
	aLo, _ := a.AxisSpan()
	bLo, _ := b.AxisSpan()
	dCross := b.CrossCoord() - a.CrossCoord()
	dz := l.Z(j) - l.Z(i)
	return ParallelGeometry{
		La: a.Length,
		Lb: b.Length,
		S:  bLo - aLo,
		D:  math.Hypot(dCross, dz),
	}, true
}

// OverlapLength returns the longitudinal overlap of two parallel
// segments (zero if disjoint or not parallel). Used by the coupling
// capacitance model and by the design rules in internal/design.
func (l *Layout) OverlapLength(i, j int) float64 {
	a, b := &l.Segments[i], &l.Segments[j]
	if a.Dir != b.Dir {
		return 0
	}
	aLo, aHi := a.AxisSpan()
	bLo, bHi := b.AxisSpan()
	lo := math.Max(aLo, bLo)
	hi := math.Min(aHi, bHi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// EdgeSpacing returns the edge-to-edge spacing of two parallel same-layer
// segments (centre distance minus half-widths); negative means they
// geometrically overlap. Returns +Inf when not comparable (different
// direction or layer).
func (l *Layout) EdgeSpacing(i, j int) float64 {
	a, b := &l.Segments[i], &l.Segments[j]
	if a.Dir != b.Dir || a.Layer != b.Layer {
		return math.Inf(1)
	}
	d := math.Abs(b.CrossCoord() - a.CrossCoord())
	return d - a.Width/2 - b.Width/2
}

// Validate checks structural invariants: layer references in range,
// non-empty node names, vias referencing existing layers. It returns the
// first problem found.
func (l *Layout) Validate() error {
	for i := range l.Segments {
		s := &l.Segments[i]
		if s.Layer < 0 || s.Layer >= len(l.Layers) {
			return fmt.Errorf("geom: segment %d layer %d out of range", i, s.Layer)
		}
		if s.NodeA == "" || s.NodeB == "" {
			return fmt.Errorf("geom: segment %d has empty node name", i)
		}
		if s.NodeA == s.NodeB {
			return fmt.Errorf("geom: segment %d is a loop on node %s", i, s.NodeA)
		}
		if s.Length <= 0 || s.Width <= 0 {
			return fmt.Errorf("geom: segment %d has non-positive dimensions", i)
		}
	}
	if err := l.validatePlanes(); err != nil {
		return err
	}
	for i := range l.Vias {
		v := &l.Vias[i]
		if v.LayerLo >= v.LayerHi {
			return fmt.Errorf("geom: via %d layers not ordered (%d >= %d)", i, v.LayerLo, v.LayerHi)
		}
		if v.LayerLo < 0 || v.LayerHi >= len(l.Layers) {
			return fmt.Errorf("geom: via %d layer out of range", i)
		}
		if v.Resistance <= 0 {
			return fmt.Errorf("geom: via %d has non-positive resistance", i)
		}
		if v.NodeLo == "" || v.NodeHi == "" {
			return fmt.Errorf("geom: via %d has empty node name", i)
		}
	}
	return nil
}
