// Package grid generates the synthetic on-chip topologies the
// experiments run on — multi-layer power/ground meshes, H-tree clock
// nets, signal buses — and assembles the paper's detailed PEEC circuit
// model (§3): RLC-π per segment, mutual inductances, coupling
// capacitance, via resistances, decoupling capacitance, background
// switching current sources, and pad/package parasitics.
//
// Substitution note (DESIGN.md §5): these generators stand in for the
// industrial PowerPC clock/grid topologies of the paper's Table 1. They
// reproduce the topology *class* (wide top-layer clock routing over an
// orthogonal power grid with pads and decap) at a parameterized scale.
package grid

import (
	"fmt"
	"math/rand"

	"inductance101/internal/circuit"
	"inductance101/internal/decap"
	"inductance101/internal/geom"
	"inductance101/internal/matrix"
	"inductance101/internal/pkgmodel"
)

// Spec parameterizes a two-layer orthogonal power/ground mesh.
type Spec struct {
	// NX is the number of vertical (Y-direction) line pairs; NY the
	// number of horizontal (X-direction) line pairs. Each pair is one
	// VDD and one GND line.
	NX, NY int
	// Pitch is the spacing between same-net lines; VDD and GND
	// interleave at Pitch/2.
	Pitch float64
	// Width is the P/G line width.
	Width float64
	// LayerX is the layer of horizontal lines; LayerY of vertical.
	LayerX, LayerY int
	// ViaR is the via resistance between the two layers at crossings.
	ViaR float64
}

// DefaultSpec returns a modest mesh usable in tests and benches.
func DefaultSpec() Spec {
	return Spec{
		NX: 4, NY: 4,
		Pitch: 50e-6, Width: 3e-6,
		LayerX: 0, LayerY: 1,
		ViaR: 0.5,
	}
}

// StandardLayers returns a 2001-era global-layer stack: two thick upper
// metal layers for grid and clock routing.
func StandardLayers() []geom.Layer {
	return []geom.Layer{
		{Name: "M5", Index: 0, Z: 4.0e-6, Thickness: 0.9e-6, SheetRho: 0.025, HBelow: 1.0e-6},
		{Name: "M6", Index: 1, Z: 6.0e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	}
}

// Model is a generated power-grid layout with its electrical node map.
type Model struct {
	Layout *geom.Layout
	Spec   Spec
	// VddX[i][j] is the node name of VDD horizontal line i at crossing
	// j (similarly GndX, VddY, GndY for vertical lines).
	VddX, GndX, VddY, GndY [][]string
	// VddPads and GndPads are top-layer nodes where package connections
	// land (the grid corners).
	VddPads, GndPads []string
}

func nodeName(net, plane string, i, j int) string {
	return fmt.Sprintf("%s%s_%d_%d", net, plane, i, j)
}

// BuildPowerGrid generates the interleaved VDD/GND mesh.
func BuildPowerGrid(layers []geom.Layer, spec Spec) (*Model, error) {
	if spec.NX < 2 || spec.NY < 2 {
		return nil, fmt.Errorf("grid: need at least a 2x2 mesh, got %dx%d", spec.NX, spec.NY)
	}
	if spec.Pitch <= 0 || spec.Width <= 0 || spec.ViaR <= 0 {
		return nil, fmt.Errorf("grid: non-positive pitch/width/viaR")
	}
	if spec.LayerX == spec.LayerY {
		return nil, fmt.Errorf("grid: X and Y lines must be on distinct layers")
	}
	lay := geom.NewLayout(layers)
	m := &Model{Layout: lay, Spec: spec}

	xs := func(j int) float64 { return float64(j) * spec.Pitch } // VDD vertical positions
	ys := func(i int) float64 { return float64(i) * spec.Pitch } // VDD horizontal positions
	off := spec.Pitch / 2                                        // GND offset
	alloc := func(n, k int) [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = make([]string, k)
		}
		return out
	}
	m.VddX = alloc(spec.NY, spec.NX)
	m.GndX = alloc(spec.NY, spec.NX)
	m.VddY = alloc(spec.NY, spec.NX)
	m.GndY = alloc(spec.NY, spec.NX)
	for i := 0; i < spec.NY; i++ {
		for j := 0; j < spec.NX; j++ {
			m.VddX[i][j] = nodeName("vdd", "x", i, j)
			m.GndX[i][j] = nodeName("gnd", "x", i, j)
			m.VddY[i][j] = nodeName("vdd", "y", i, j)
			m.GndY[i][j] = nodeName("gnd", "y", i, j)
		}
	}

	// Horizontal (X-direction) lines on LayerX: segments between
	// consecutive crossings.
	for i := 0; i < spec.NY; i++ {
		for j := 0; j+1 < spec.NX; j++ {
			lay.AddSegment(geom.Segment{
				Layer: spec.LayerX, Dir: geom.DirX,
				X0: xs(j), Y0: ys(i), Length: spec.Pitch, Width: spec.Width,
				Net: "VDD", NodeA: m.VddX[i][j], NodeB: m.VddX[i][j+1],
			})
			lay.AddSegment(geom.Segment{
				Layer: spec.LayerX, Dir: geom.DirX,
				X0: xs(j) + off, Y0: ys(i) + off, Length: spec.Pitch, Width: spec.Width,
				Net: "GND", NodeA: m.GndX[i][j], NodeB: m.GndX[i][j+1],
			})
		}
	}
	// Vertical (Y-direction) lines on LayerY.
	for j := 0; j < spec.NX; j++ {
		for i := 0; i+1 < spec.NY; i++ {
			lay.AddSegment(geom.Segment{
				Layer: spec.LayerY, Dir: geom.DirY,
				X0: xs(j), Y0: ys(i), Length: spec.Pitch, Width: spec.Width,
				Net: "VDD", NodeA: m.VddY[i][j], NodeB: m.VddY[i+1][j],
			})
			lay.AddSegment(geom.Segment{
				Layer: spec.LayerY, Dir: geom.DirY,
				X0: xs(j) + off, Y0: ys(i) + off, Length: spec.Pitch, Width: spec.Width,
				Net: "GND", NodeA: m.GndY[i][j], NodeB: m.GndY[i+1][j],
			})
		}
	}
	// Vias at every crossing tie the planes.
	for i := 0; i < spec.NY; i++ {
		for j := 0; j < spec.NX; j++ {
			lay.AddVia(geom.Via{
				X: xs(j), Y: ys(i), LayerLo: minInt(spec.LayerX, spec.LayerY),
				LayerHi: maxInt(spec.LayerX, spec.LayerY), Resistance: spec.ViaR,
				Net: "VDD", NodeLo: m.VddX[i][j], NodeHi: m.VddY[i][j],
			})
			lay.AddVia(geom.Via{
				X: xs(j) + off, Y: ys(i) + off, LayerLo: minInt(spec.LayerX, spec.LayerY),
				LayerHi: maxInt(spec.LayerX, spec.LayerY), Resistance: spec.ViaR,
				Net: "GND", NodeLo: m.GndX[i][j], NodeHi: m.GndY[i][j],
			})
		}
	}
	// Pads at the four mesh corners (top layer nodes).
	for _, c := range [][2]int{{0, 0}, {0, spec.NX - 1}, {spec.NY - 1, 0}, {spec.NY - 1, spec.NX - 1}} {
		m.VddPads = append(m.VddPads, m.VddY[c[0]][c[1]])
		m.GndPads = append(m.GndPads, m.GndY[c[0]][c[1]])
	}
	return m, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Extent returns the mesh span in metres.
func (m *Model) Extent() (w, h float64) {
	s := m.Spec
	return float64(s.NX-1)*s.Pitch + s.Pitch/2, float64(s.NY-1)*s.Pitch + s.Pitch/2
}

// NearestGridNodes returns the VDD and GND crossing node names closest
// to (x, y), for hooking drivers and loads onto the grid.
func (m *Model) NearestGridNodes(x, y float64) (vdd, gnd string) {
	s := m.Spec
	j := clampInt(int(x/s.Pitch+0.5), 0, s.NX-1)
	i := clampInt(int(y/s.Pitch+0.5), 0, s.NY-1)
	return m.VddX[i][j], m.GndX[i][j]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AttachPackage stamps pad/package connections from ideal external
// rails ("vdd_ext" driven at vddVal, ground) to every pad node.
func (m *Model) AttachPackage(n *circuit.Netlist, conn pkgmodel.Connection, vddVal float64) error {
	n.AddV("vext", "vdd_ext", circuit.Ground, circuit.DC(vddVal))
	return m.AttachPackagePads(n, conn)
}

// AttachPackagePads stamps the pad/lead parasitics to the external rail
// nodes ("vdd_ext", ground) without creating the supply source — flows
// that fold sources into Norton injections (PRIMA) use this form.
func (m *Model) AttachPackagePads(n *circuit.Netlist, conn pkgmodel.Connection) error {
	for k, pad := range m.VddPads {
		if _, err := conn.Stamp(n, fmt.Sprintf("pkgv%d", k), "vdd_ext", pad); err != nil {
			return err
		}
	}
	for k, pad := range m.GndPads {
		if _, err := conn.Stamp(n, fmt.Sprintf("pkgg%d", k), circuit.Ground, pad); err != nil {
			return err
		}
	}
	return nil
}

// AddDecap distributes estimated block decoupling capacitance across
// the grid crossings (the paper's model of the 80-90% non-switching
// gates). totalWidth is the chip's total transistor width in microns.
func (m *Model) AddDecap(n *circuit.Netlist, est *decap.Estimator, totalWidth float64) {
	s := m.Spec
	cells := s.NX * s.NY
	per := totalWidth / float64(cells)
	for i := 0; i < s.NY; i++ {
		for j := 0; j < s.NX; j++ {
			est.Stamp(n, fmt.Sprintf("dcap_%d_%d", i, j), m.VddX[i][j], m.GndX[i][j], per)
		}
	}
}

// AddBackgroundActivity connects time-varying current sources between
// VDD and GND at nSources random crossings, with ramped-triangle
// profiles shifted in time — the paper's model of "other signals
// switching simultaneously ... different parts of the chip switching at
// different times".
func (m *Model) AddBackgroundActivity(n *circuit.Netlist, rng *rand.Rand, nSources int, peak, period float64) {
	s := m.Spec
	for k := 0; k < nSources; k++ {
		i := rng.Intn(s.NY)
		j := rng.Intn(s.NX)
		mag := peak * (0.5 + rng.Float64())
		shift := rng.Float64() * period
		tri := circuit.PWL{
			Times:  []float64{0, 0.15 * period, 0.5 * period, period},
			Values: []float64{0, mag, 0.1 * mag, 0},
		}
		n.AddI(fmt.Sprintf("bg%d", k), m.VddX[i][j], m.GndX[i][j],
			circuit.Shifted{W: tri, Dt: shift})
	}
}

// IRDropDC computes the worst static IR drop of the grid for a uniform
// DC current draw per crossing by a dense LU of the full MNA G. It is
// the dense oracle the sparse path (IRDropDCSparseChol, the one
// supply.Analyze runs) is checked against; no production flow calls it.
func IRDropDC(m *Model, n *circuit.Netlist, vdd float64) (float64, error) {
	// The caller is expected to have attached the package and loads;
	// here we just find the minimum VDD node voltage from a DC solve.
	mna := circuit.BuildSparse(n)
	b := make([]float64, mna.Size())
	mna.RHS(0, b)
	g := mna.G.ToDense()
	for i := 0; i < n.NumNodes(); i++ {
		g.Add(i, i, 1e-12)
	}
	x, err := matrix.SolveDense(g, b)
	if err != nil {
		return 0, err
	}
	return worstVddDrop(m, n, x, vdd), nil
}

// IRDropDCSparseChol is IRDropDC on the sparse direct path: the SPD
// system BuildSparseDC assembles (inductors as DC shorts, voltage
// sources by penalty), factored once by the sparse Cholesky. Exact to
// machine precision (no iteration tolerance) at a cost that scales
// with the factor fill rather than the grid cubed.
func IRDropDCSparseChol(m *Model, n *circuit.Netlist, vdd float64) (float64, error) {
	g, b, err := circuit.BuildSparseDC(n, 0, 0, 0)
	if err != nil {
		return 0, err
	}
	ch, err := matrix.FactorSparseCholesky(g.ToCSC())
	if err != nil {
		return 0, fmt.Errorf("grid: sparse Cholesky IR solve: %w", err)
	}
	x, err := ch.Solve(b)
	if err != nil {
		return 0, fmt.Errorf("grid: sparse Cholesky IR solve: %w", err)
	}
	return worstVddDrop(m, n, x, vdd), nil
}

// worstVddDrop scans the VDD plane for the largest drop below vdd.
func worstVddDrop(m *Model, n *circuit.Netlist, x []float64, vdd float64) float64 {
	worst := 0.0
	for i := 0; i < m.Spec.NY; i++ {
		for j := 0; j < m.Spec.NX; j++ {
			idx, err := n.NodeIndex(m.VddX[i][j])
			if err != nil {
				continue
			}
			if drop := vdd - x[idx]; drop > worst {
				worst = drop
			}
		}
	}
	return worst
}
