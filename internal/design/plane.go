package design

// First-class plane workloads: the paper's Fig. 6 "dedicated ground
// plane" story extracted over real geom.Plane conductor planes through
// the mesh lowering, replacing the strip-array emulation of PlaneSpec /
// VariantPlane. Microstrip is a signal over one plane; the plane
// supports rectangular perforation holes, the structure whose
// inductance penalty Tolpygo et al. (arXiv 2112.08457, part II) measure
// on superconductor ground planes.

import (
	"fmt"

	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
)

// MicrostripSpec describes a signal wire routed over a conductor plane
// on the layer below — the Fig. 6 ground-plane structure as real
// geometry instead of a strip array.
type MicrostripSpec struct {
	Length  float64 // signal (and plane) length along x
	SignalW float64 // signal width
	PlaneW  float64 // plane width across y, centred under the signal
	// FarReturnD is the centre distance to the coplanar far return that
	// closes the DC loop (mirrors the strip-emulation topology, where a
	// far return always exists so every variant is solvable at DC).
	FarReturnD float64
	// PlaneNW is the plane mesh density (0 = mesh.DefaultPlaneNW).
	PlaneNW int
	// Holes perforate the plane (absolute coordinates, inside the plane
	// extent [0, Length] x [-PlaneW/2, PlaneW/2]).
	Holes []geom.Hole
}

// DefaultMicrostripSpec sizes the plane to the metal footprint of
// DefaultPlaneSpec's strip array (7 strips of 6 um at 1 um gaps spans
// 48 um), so the two Fig. 6 workloads describe the same structure.
func DefaultMicrostripSpec() MicrostripSpec {
	return MicrostripSpec{
		Length: 1500e-6, SignalW: 2e-6,
		PlaneW: 48e-6, FarReturnD: 80e-6,
	}
}

// MicrostripLayout builds the microstrip structure: signal on the top
// layer at y = 0, far return beside it, and a conductor plane on the
// layer below whose x = 0 edge rail ties to the return terminal and
// x = Length edge rail to the signal's far end — the same loop topology
// as LOverFrequency's VariantPlane, with the strip array replaced by a
// real plane. It returns everything a fasthenry.NewSolver call needs.
func MicrostripLayout(spec MicrostripSpec) (lay *geom.Layout, segs []int, port fasthenry.Port, shorts [][2]string, err error) {
	if spec.Length <= 0 || spec.SignalW <= 0 || spec.PlaneW <= 0 || spec.FarReturnD <= 0 {
		return nil, nil, fasthenry.Port{}, nil, fmt.Errorf("design: bad microstrip spec %+v", spec)
	}
	layers := grid.StandardLayers() // [0] = plane layer, [1] = signal layer
	lay = geom.NewLayout(layers)
	segs = []int{lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: spec.Length, Width: spec.SignalW,
		Net: "sig", NodeA: "s0", NodeB: "s1",
	})}
	segs = append(segs, lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: spec.FarReturnD,
		Length: spec.Length, Width: spec.SignalW,
		Net: "ret", NodeA: "r0", NodeB: "r1",
	}))
	lay.AddPlane(geom.Plane{
		Layer: 0, X0: 0, Y0: -spec.PlaneW / 2, X1: spec.Length, Y1: spec.PlaneW / 2,
		Net: "ret", NodeLeft: "p0", NodeRight: "p1",
		Holes: spec.Holes,
	})
	shorts = [][2]string{{"s1", "r1"}, {"p1", "s1"}, {"p0", "r0"}}
	if err := lay.Validate(); err != nil {
		return nil, nil, fasthenry.Port{}, nil, err
	}
	return lay, segs, fasthenry.Port{Plus: "s0", Minus: "r0"}, shorts, nil
}

// Microstrip extracts the loop impedance of the structure at each
// frequency — the plane-backed replacement for
// LOverFrequency(VariantPlane). The last frequency sizes the segment
// filament grids, as in every sweep entry point of the package.
func Microstrip(spec MicrostripSpec, freqs []float64, opt fasthenry.Options) ([]fasthenry.Point, error) {
	lay, segs, port, shorts, err := MicrostripLayout(spec)
	if err != nil {
		return nil, err
	}
	if opt.MaxPerSide == 0 {
		opt.MaxPerSide = 2
	}
	if opt.PlaneNW == 0 {
		opt.PlaneNW = spec.PlaneNW
	}
	fRef := freqs[len(freqs)-1]
	solver, err := fasthenry.NewSolver(lay, segs, port, shorts, fRef, opt)
	if err != nil {
		return nil, err
	}
	return solver.Sweep(freqs)
}
