// Package mesh is the shared lowering stage between layout geometry
// (internal/geom) and the filament-level solvers: it discretizes
// Segments, Planes and Vias into one uniform set of current filaments
// with merged electrical node ids, the representation every
// partial-inductance solve path (dense LU, flat-ACA GMRES, nested-basis
// H²) consumes.
//
// Segments are split across their cross-section into parallel
// filaments, enough that each is no wider than the skin depth at the
// reference frequency (FastHenry's discretization). Planes are lowered
// into overlapping X- and Y-directed filament grids with node
// stitching at the grid intersections — FastHenry's uniform-plane
// model — with perforation holes respected and edge node rails merging
// boundary nodes onto named terminals (see plane.go). Vias short their
// endpoint nodes, as do explicit shorts lists.
//
// The lowering is a pure serial function of its inputs: filament
// order, node ids and every geometric value are deterministic, so the
// solvers built on top stay bit-identical at any worker count.
package mesh

import (
	"fmt"
	"math"

	"inductance101/internal/geom"
	"inductance101/internal/units"
)

// Filament is one straight rectangular current tube: the uniform
// element all solve paths operate on, whether it was lowered from a
// segment's cross-section or a plane's grid.
type Filament struct {
	// Seg is the source segment index, or -1 for plane filaments;
	// Plane the source plane index, or -1 for segment filaments.
	Seg, Plane int
	Dir        geom.Direction
	X0, Y0     float64 // centre-line start (plane coordinates)
	Z          float64 // centre height
	Length     float64
	W, T       float64 // cross-section
	R          float64 // series resistance
	NodeA      int     // merged node id at (X0, Y0)
	NodeB      int     // merged node id at the far end
}

// End returns the filament's far-end centre-line coordinates.
func (f *Filament) End() (x, y float64) {
	if f.Dir == geom.DirX {
		return f.X0 + f.Length, f.Y0
	}
	return f.X0, f.Y0 + f.Length
}

// Options controls the lowering density.
type Options struct {
	// NW, NT force the per-segment filament counts across width and
	// thickness. Zero means automatic: enough filaments that each is
	// no wider than the skin depth at the reference frequency, capped
	// by MaxPerSide.
	NW, NT int
	// MaxPerSide caps automatic segment discretization (default 5).
	MaxPerSide int
	// Rho is the conductor resistivity used for skin-depth sizing
	// (default copper).
	Rho float64
	// PlaneNW is the number of grid cells along each axis of a plane's
	// filament mesh: every plane lowers to a PlaneNW x PlaneNW cell
	// grid (~2·PlaneNW² filaments and ~PlaneNW² nodes), whatever its
	// aspect ratio, so the problem size — the dense oracle's nodal
	// system and the iterative paths' augmented branch/node system
	// alike — is bounded by this knob alone. 0 means DefaultPlaneNW. Values below 2 or above
	// MaxPlaneNW are rejected fail-fast: a 1-cell grid cannot
	// redistribute current and a huge one is a typo that would
	// allocate millions of filaments.
	PlaneNW int
}

// DefaultPlaneNW is the plane grid density when Options.PlaneNW is 0:
// coarse enough that a Fig. 6 structure stays interactive, fine enough
// that the return-current spread under the signal resolves.
const DefaultPlaneNW = 8

// MaxPlaneNW caps the plane grid density a run may request.
const MaxPlaneNW = 1024

// maxPlaneNodes bounds one plane's grid so an extreme aspect ratio
// cannot silently allocate an absurd mesh.
const maxPlaneNodes = 1 << 20

func (o Options) maxPerSide() int {
	if o.MaxPerSide <= 0 {
		return 5
	}
	return o.MaxPerSide
}

func (o Options) rho() float64 {
	if o.Rho <= 0 {
		return units.RhoCu
	}
	return o.Rho
}

func (o Options) planeNW() int {
	if o.PlaneNW == 0 {
		return DefaultPlaneNW
	}
	return o.PlaneNW
}

// ValidatePlaneNW rejects plane densities no lowering can honor; the
// engine config and the job decoders call it so every entry point
// fails fast with the same message. 0 (the default) is valid.
func ValidatePlaneNW(nw int) error {
	if nw == 0 {
		return nil
	}
	if nw < 2 || nw > MaxPlaneNW {
		return fmt.Errorf("mesh: plane density %d outside [2, %d]", nw, MaxPlaneNW)
	}
	return nil
}

// Mesh is the lowered filament set plus the electrical node space the
// filaments connect. It is immutable except for Node, which may mint
// ids for names (ports) that appear on no conductor.
type Mesh struct {
	Filaments []Filament
	// SegFilaments and PlaneFilaments count the filaments by source.
	SegFilaments, PlaneFilaments int

	parent map[string]string // union-find over node names
	nodeID map[string]int    // canonical name -> id
	nNodes int
}

// NumNodes returns the number of distinct electrical nodes, including
// any minted by Node since the build.
func (m *Mesh) NumNodes() int { return m.nNodes }

func (m *Mesh) find(s string) string {
	p, ok := m.parent[s]
	if !ok || p == s {
		m.parent[s] = s
		return s
	}
	r := m.find(p)
	m.parent[s] = r
	return r
}

func (m *Mesh) union(a, b string) { m.parent[m.find(a)] = m.find(b) }

// Node resolves a node name through the shorts/via merges to its id,
// minting a fresh id for names not on any conductor (a port terminal
// referencing a node the layout never mentions solves — and then fails
// — exactly as it always has, with a disconnected-network error).
func (m *Mesh) Node(name string) int {
	r := m.find(name)
	if id, ok := m.nodeID[r]; ok {
		return id
	}
	id := m.nNodes
	m.nodeID[r] = id
	m.nNodes++
	return id
}

// anonNode mints an id with no name — a plane-interior grid node,
// unreachable from shorts and ports by construction.
func (m *Mesh) anonNode() int {
	id := m.nNodes
	m.nNodes++
	return id
}

// Build lowers the given segments of the layout (plus every plane and
// via it contains) into filaments at reference frequency fRef (which
// sizes the segment filament grids), merging the node pairs in shorts.
// Filament order is deterministic: segments in the order given (width
// index outer, thickness inner — the historical fasthenry order, so
// segment-only layouts lower bit-identically to the pre-mesh solver),
// then planes in layout order (X-directed grid rows, then Y-directed
// columns).
func Build(l *geom.Layout, segs []int, shorts [][2]string, fRef float64, opt Options) (*Mesh, error) {
	if err := ValidatePlaneNW(opt.PlaneNW); err != nil {
		return nil, err
	}
	m := &Mesh{
		parent: make(map[string]string),
		nodeID: make(map[string]int),
	}
	for _, sh := range shorts {
		m.union(sh[0], sh[1])
	}
	// Vias short their endpoint nodes: via resistance is negligible
	// against the loop impedances of interest, and the RL solver has no
	// resistor-only branches. Vias whose nodes never appear on lowered
	// conductors are harmless — their merged names are simply never
	// used.
	for i := range l.Vias {
		v := &l.Vias[i]
		m.union(v.NodeLo, v.NodeHi)
	}

	skin := units.SkinDepth(opt.rho(), fRef)
	for _, si := range segs {
		if err := m.lowerSegment(l, si, skin, opt); err != nil {
			return nil, err
		}
	}
	m.SegFilaments = len(m.Filaments)
	for pi := range l.Planes {
		if err := m.lowerPlane(l, pi, opt); err != nil {
			return nil, err
		}
	}
	m.PlaneFilaments = len(m.Filaments) - m.SegFilaments
	if len(m.Filaments) == 0 {
		return nil, fmt.Errorf("mesh: no filaments (empty segment and plane lists)")
	}
	return m, nil
}

// lowerSegment splits one segment across its cross-section into
// nw x nt parallel filaments.
func (m *Mesh) lowerSegment(l *geom.Layout, si int, skin float64, opt Options) error {
	s := &l.Segments[si]
	ly := l.Layers[s.Layer]
	nw, nt := opt.NW, opt.NT
	if nw <= 0 {
		nw = autoDiv(s.Width, skin, opt.maxPerSide())
	}
	if nt <= 0 {
		nt = autoDiv(ly.Thickness, skin, opt.maxPerSide())
	}
	fw := s.Width / float64(nw)
	ft := ly.Thickness / float64(nt)
	// Filament resistance from the layer's sheet resistance:
	// rho = SheetRho * thickness; R = rho l / (fw ft). Each filament
	// carries rFil; the parallel combination of nw*nt filaments equals
	// the segment resistance.
	rho := ly.SheetRho * ly.Thickness
	rFil := rho * s.Length / (fw * ft)
	na, nb := m.Node(s.NodeA), m.Node(s.NodeB)
	if na == nb {
		return fmt.Errorf("mesh: segment %d shorted end-to-end by shorts list", si)
	}
	zc := ly.Z + ly.Thickness/2
	for iw := 0; iw < nw; iw++ {
		off := -s.Width/2 + (float64(iw)+0.5)*fw
		for it := 0; it < nt; it++ {
			zf := zc - ly.Thickness/2 + (float64(it)+0.5)*ft
			f := Filament{
				Seg: si, Plane: -1, Dir: s.Dir, Length: s.Length,
				W: fw, T: ft, R: rFil,
				NodeA: na, NodeB: nb, Z: zf,
			}
			if s.Dir == geom.DirX {
				f.X0, f.Y0 = s.X0, s.Y0+off
			} else {
				f.X0, f.Y0 = s.X0+off, s.Y0
			}
			m.Filaments = append(m.Filaments, f)
		}
	}
	return nil
}

func autoDiv(dim, skin float64, maxN int) int {
	if skin <= 0 || math.IsInf(skin, 1) {
		return 1
	}
	n := int(math.Ceil(dim / skin))
	if n < 1 {
		n = 1
	}
	if n > maxN {
		n = maxN
	}
	return n
}
