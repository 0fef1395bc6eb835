package mesh

import (
	"math"
	"reflect"
	"testing"

	"inductance101/internal/geom"
)

// twoLayers is the minimal plane-capable stack: a plane layer below a
// signal layer, dimensioned like the standard grid stack.
func twoLayers() []geom.Layer {
	return []geom.Layer{
		{Name: "M5", Index: 0, Z: 4e-6, Thickness: 0.9e-6, SheetRho: 0.025, HBelow: 1.0e-6},
		{Name: "M6", Index: 1, Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	}
}

func planeOnlyLayout(t *testing.T, p geom.Plane) *geom.Layout {
	t.Helper()
	lay := geom.NewLayout(twoLayers())
	lay.AddPlane(p)
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestValidatePlaneNW pins the fail-fast range: 0 delegates to the
// default, [2, MaxPlaneNW] is accepted, everything else rejected.
func TestValidatePlaneNW(t *testing.T) {
	for _, nw := range []int{0, 2, 8, MaxPlaneNW} {
		if err := ValidatePlaneNW(nw); err != nil {
			t.Errorf("ValidatePlaneNW(%d) = %v, want nil", nw, err)
		}
	}
	for _, nw := range []int{1, -1, -8, MaxPlaneNW + 1, 1 << 20} {
		if err := ValidatePlaneNW(nw); err == nil {
			t.Errorf("ValidatePlaneNW(%d) accepted an out-of-range density", nw)
		}
	}
}

// TestPlaneGridCounts checks the solid-plane mesh arithmetic at
// PlaneNW=4 (a 5x5 node grid): rail columns collapse onto one node
// each, rail-edge filaments are dropped as degenerate, and the X/Y
// grids cover every interior cell boundary exactly once.
func TestPlaneGridCounts(t *testing.T) {
	lay := planeOnlyLayout(t, geom.Plane{
		Layer: 0, X0: 0, Y0: 0, X1: 4e-6, Y1: 4e-6,
		Net: "GND", NodeLeft: "p0", NodeRight: "p1",
	})
	m, err := Build(lay, nil, nil, 1e9, Options{PlaneNW: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.SegFilaments != 0 {
		t.Errorf("SegFilaments = %d on a segment-free layout", m.SegFilaments)
	}
	// X grid: 5 rows x 4 spans = 20, none degenerate. Y grid: 5 columns
	// x 4 spans = 20, minus the 4+4 filaments running along the two rail
	// edges (both ends on the same rail node) = 12.
	if m.PlaneFilaments != 32 {
		t.Errorf("PlaneFilaments = %d, want 32", m.PlaneFilaments)
	}
	// Nodes: two rails plus 5x5 - 2x5 = 15 anonymous interior nodes.
	if got := m.NumNodes(); got != 17 {
		t.Errorf("NumNodes = %d, want 17", got)
	}
	// Every X filament starting on the left edge must see the left rail.
	p0 := m.Node("p0")
	leftEdge := 0
	for i := range m.Filaments {
		f := &m.Filaments[i]
		if f.Plane != 0 || f.Seg != -1 {
			t.Fatalf("filament %d has source (%d, %d), want plane 0", i, f.Seg, f.Plane)
		}
		if f.Dir == geom.DirX && f.X0 == 0 {
			leftEdge++
			if f.NodeA != p0 {
				t.Errorf("left-edge X filament at y=%g has NodeA %d, want rail %d", f.Y0, f.NodeA, p0)
			}
		}
		if f.NodeA == f.NodeB {
			t.Errorf("filament %d is degenerate (both ends on node %d)", i, f.NodeA)
		}
	}
	if leftEdge != 5 {
		t.Errorf("%d left-edge X filaments, want 5", leftEdge)
	}
}

// TestPlaneFilamentResistance checks the sheet-resistance form: a grid
// filament of length dx and width dy carries R = SheetRho * dx / dy
// regardless of the layer thickness.
func TestPlaneFilamentResistance(t *testing.T) {
	lay := planeOnlyLayout(t, geom.Plane{
		Layer: 0, X0: 0, Y0: 0, X1: 8e-6, Y1: 4e-6,
		Net: "GND", NodeLeft: "p0", NodeRight: "p1",
	})
	m, err := Build(lay, nil, nil, 1e9, Options{PlaneNW: 4})
	if err != nil {
		t.Fatal(err)
	}
	dx, dy := 2e-6, 1e-6 // 8u/4 cells, 4u/4 cells
	for i := range m.Filaments {
		f := &m.Filaments[i]
		var want float64
		if f.Dir == geom.DirX {
			want = 0.025 * dx / dy
		} else {
			want = 0.025 * dy / dx
		}
		if math.Abs(f.R-want) > 1e-12*want {
			t.Fatalf("filament %d (dir %v): R = %g, want %g", i, f.Dir, f.R, want)
		}
		if f.T != 0.9e-6 {
			t.Fatalf("filament %d: thickness %g, want the layer's 0.9e-6", i, f.T)
		}
	}
}

// TestPlaneHoleRemovesNodesAndFilaments perforates the 5x5 grid with a
// hole strictly containing only the centre node: that node and its four
// incident filaments must vanish, nothing else.
func TestPlaneHoleRemovesNodesAndFilaments(t *testing.T) {
	hole := geom.Hole{X0: 1.5e-6, Y0: 1.5e-6, X1: 2.5e-6, Y1: 2.5e-6}
	lay := planeOnlyLayout(t, geom.Plane{
		Layer: 0, X0: 0, Y0: 0, X1: 4e-6, Y1: 4e-6,
		Net: "GND", NodeLeft: "p0", NodeRight: "p1",
		Holes: []geom.Hole{hole},
	})
	m, err := Build(lay, nil, nil, 1e9, Options{PlaneNW: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.PlaneFilaments != 32-4 {
		t.Errorf("PlaneFilaments = %d, want 28 (solid 32 minus the centre node's 4)", m.PlaneFilaments)
	}
	if got := m.NumNodes(); got != 16 {
		t.Errorf("NumNodes = %d, want 16 (solid 17 minus the centre node)", got)
	}
	// No surviving filament may end at — or cross — the hole interior.
	for i := range m.Filaments {
		f := &m.Filaments[i]
		mx, my := f.X0, f.Y0
		if f.Dir == geom.DirX {
			mx += f.Length / 2
		} else {
			my += f.Length / 2
		}
		if hole.Contains(mx, my) {
			t.Errorf("filament %d midpoint (%g, %g) inside the hole", i, mx, my)
		}
	}
}

// TestPlaneRailOmitted leaves three edges unnamed: their boundary nodes
// must stay anonymous (distinct), so only the named edge collapses.
func TestPlaneRailOmitted(t *testing.T) {
	lay := planeOnlyLayout(t, geom.Plane{
		Layer: 0, X0: 0, Y0: 0, X1: 4e-6, Y1: 4e-6,
		Net: "GND", NodeLeft: "p0",
	})
	m, err := Build(lay, nil, nil, 1e9, Options{PlaneNW: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One rail + 20 anonymous nodes; all 20 Y-grid filaments minus the 4
	// along the left rail survive, plus the full 20-filament X grid.
	if got := m.NumNodes(); got != 21 {
		t.Errorf("NumNodes = %d, want 21", got)
	}
	if m.PlaneFilaments != 36 {
		t.Errorf("PlaneFilaments = %d, want 36", m.PlaneFilaments)
	}
}

// TestSegmentLoweringParallelResistance pins the cross-section split: a
// forced nw x nt grid of identical filaments whose parallel combination
// equals the segment's sheet resistance.
func TestSegmentLoweringParallelResistance(t *testing.T) {
	lay := geom.NewLayout(twoLayers())
	si := lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 100e-6, Width: 4e-6,
		Net: "sig", NodeA: "a", NodeB: "b",
	})
	m, err := Build(lay, []int{si}, nil, 1e9, Options{NW: 3, NT: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.SegFilaments != 6 || m.PlaneFilaments != 0 {
		t.Fatalf("filament split %d/%d, want 6 segment filaments", m.SegFilaments, m.PlaneFilaments)
	}
	inv := 0.0
	for i := range m.Filaments {
		f := &m.Filaments[i]
		if f.Seg != si || f.Plane != -1 {
			t.Fatalf("filament %d has source (%d, %d), want segment %d", i, f.Seg, f.Plane, si)
		}
		inv += 1 / f.R
	}
	want := 0.018 * 100e-6 / 4e-6 // SheetRho * L / W
	if got := 1 / inv; math.Abs(got-want) > 1e-12*want {
		t.Errorf("parallel filament resistance %g, want segment resistance %g", got, want)
	}
}

// TestBuildDeterministic lowers a mixed segment+plane+hole layout twice
// and demands bit-identical filament lists — the contract that keeps
// every solver deterministic at any worker count.
func TestBuildDeterministic(t *testing.T) {
	build := func() *Mesh {
		lay := geom.NewLayout(twoLayers())
		s0 := lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
			Length: 40e-6, Width: 2e-6, Net: "sig", NodeA: "s0", NodeB: "s1",
		})
		lay.AddPlane(geom.Plane{
			Layer: 0, X0: 0, Y0: -8e-6, X1: 40e-6, Y1: 8e-6,
			Net: "GND", NodeLeft: "g0", NodeRight: "g1",
			Holes: []geom.Hole{{X0: 12e-6, Y0: -3e-6, X1: 28e-6, Y1: 3e-6}},
		})
		if err := lay.Validate(); err != nil {
			t.Fatal(err)
		}
		m, err := Build(lay, []int{s0}, [][2]string{{"s1", "g1"}}, 2e10, Options{PlaneNW: 6})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Filaments, b.Filaments) {
		t.Fatal("two identical builds produced different filament lists")
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
}

// TestClusterFilamentsDeterministic builds filament cluster trees at
// several worker counts and demands identical shapes and leaf orders.
func TestClusterFilamentsDeterministic(t *testing.T) {
	lay := planeOnlyLayout(t, geom.Plane{
		Layer: 0, X0: 0, Y0: 0, X1: 100e-6, Y1: 100e-6,
		Net: "GND", NodeLeft: "p0", NodeRight: "p1",
	})
	m, err := Build(lay, nil, nil, 1e9, Options{PlaneNW: 12})
	if err != nil {
		t.Fatal(err)
	}
	var flatten func(n *geom.ClusterNode, out *[]int)
	flatten = func(n *geom.ClusterNode, out *[]int) {
		if n.IsLeaf() {
			*out = append(*out, n.Segs...)
			*out = append(*out, -1) // leaf boundary marker
			return
		}
		flatten(n.Left, out)
		flatten(n.Right, out)
	}
	shape := func(workers int) []int {
		var out []int
		for _, r := range ClusterFilaments(m.Filaments, 16, workers) {
			flatten(r, &out)
			out = append(out, -2) // root boundary marker
		}
		return out
	}
	want := shape(1)
	for _, w := range []int{2, 8} {
		if got := shape(w); !reflect.DeepEqual(got, want) {
			t.Errorf("cluster tree at workers=%d differs from the serial tree", w)
		}
	}
}

// TestBuildErrors pins the build-time failure modes: an empty lowering,
// a segment shorted end-to-end, and a rejected plane density.
func TestBuildErrors(t *testing.T) {
	lay := geom.NewLayout(twoLayers())
	if _, err := Build(lay, nil, nil, 1e9, Options{}); err == nil {
		t.Error("empty lowering did not error")
	}

	si := lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 10e-6, Width: 2e-6, Net: "sig", NodeA: "a", NodeB: "b",
	})
	if _, err := Build(lay, []int{si}, [][2]string{{"a", "b"}}, 1e9, Options{}); err == nil {
		t.Error("segment shorted end-to-end did not error")
	}
	if _, err := Build(lay, []int{si}, nil, 1e9, Options{PlaneNW: 1}); err == nil {
		t.Error("PlaneNW=1 did not error")
	}
}

// TestNodeMinting checks Node's contract for names no conductor
// carries: a fresh id, stable on repeat, counted by NumNodes; Lookup
// reports them missing instead.
func TestNodeMinting(t *testing.T) {
	lay := geom.NewLayout(twoLayers())
	si := lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 10e-6, Width: 2e-6, Net: "sig", NodeA: "a", NodeB: "b",
	})
	m, err := Build(lay, []int{si}, [][2]string{{"b", "b_alias"}}, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.NumNodes()
	// Lookup resolves merged names and never mints.
	if id, ok := m.Lookup("b_alias"); !ok || id != m.Node("b") {
		t.Errorf("Lookup(b_alias) = %d, %v; want Node(b) = %d", id, ok, m.Node("b"))
	}
	if id, ok := m.Lookup("ghost"); ok || m.NumNodes() != before {
		t.Errorf("Lookup(ghost) = %d, %v with NumNodes %d -> %d; want not found, no new node", id, ok, before, m.NumNodes())
	}
	g := m.Node("ghost")
	if g < before || m.NumNodes() != before+1 {
		t.Errorf("minted node %d, NumNodes %d -> %d", g, before, m.NumNodes())
	}
	if m.Node("ghost") != g {
		t.Error("repeat Node lookup minted a second id")
	}
	if id, ok := m.Lookup("ghost"); !ok || id != g {
		t.Errorf("Lookup(ghost) after Node = %d, %v; want %d", id, ok, g)
	}
}
