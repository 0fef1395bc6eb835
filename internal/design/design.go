// Package design implements the paper's §7 design techniques for
// managing on-chip inductance, each as a generator + evaluator pair so
// the benchmark harness can regenerate Figures 5-9:
//
//   - shielding (sandwiching a signal between ground returns, Fig. 5)
//   - dedicated ground planes and their L(f) behaviour (Fig. 6)
//   - inter-digitated wires (Fig. 7)
//   - staggered inverter patterns (Fig. 8)
//   - twisted-bundle layout structures (Fig. 9)
//   - simultaneous shield insertion and net ordering (He et al., ISPD
//     2000) by greedy construction and simulated annealing
package design

import (
	"fmt"

	"inductance101/internal/extract"
	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
)

// topLayer returns the single-layer stack used by the technique
// structures (a thick global metal).
func topLayer() []geom.Layer {
	return []geom.Layer{grid.StandardLayers()[1]}
}

// ShieldSpec describes a signal with optional coplanar shields and a
// distant return path (the "no shield" reference loop closes through
// the distant return; shields pull the return current close).
type ShieldSpec struct {
	Length     float64
	SignalW    float64
	ShieldW    float64
	ShieldGap  float64 // edge-to-edge signal-shield spacing
	FarReturnD float64 // centre distance to the far return line
}

// DefaultShieldSpec gives a typical global signal.
func DefaultShieldSpec() ShieldSpec {
	return ShieldSpec{
		Length:     1500e-6,
		SignalW:    2e-6,
		ShieldW:    2e-6,
		ShieldGap:  1e-6,
		FarReturnD: 60e-6,
	}
}

// ShieldedLoop builds the structure and extracts the loop inductance
// and resistance at frequency f, with or without shields. The far
// return is always present (some return path must exist); shields are
// added symmetrically when withShields is set.
func ShieldedLoop(spec ShieldSpec, withShields bool, f float64) (r, l float64, err error) {
	if spec.Length <= 0 || spec.SignalW <= 0 {
		return 0, 0, fmt.Errorf("design: bad shield spec %+v", spec)
	}
	lay := geom.NewLayout(topLayer())
	segs := []int{}
	segs = append(segs, lay.AddSegment(geom.Segment{
		Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: spec.Length, Width: spec.SignalW,
		Net: "sig", NodeA: "s0", NodeB: "s1",
	}))
	segs = append(segs, lay.AddSegment(geom.Segment{
		Layer: 0, Dir: geom.DirX, X0: 0, Y0: spec.FarReturnD,
		Length: spec.Length, Width: spec.ShieldW,
		Net: "ret", NodeA: "r0", NodeB: "r1",
	}))
	shorts := [][2]string{{"s1", "r1"}}
	if withShields {
		d := spec.SignalW/2 + spec.ShieldGap + spec.ShieldW/2
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: -d,
			Length: spec.Length, Width: spec.ShieldW,
			Net: "ret", NodeA: "sh0a", NodeB: "sh0b",
		}))
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: d,
			Length: spec.Length, Width: spec.ShieldW,
			Net: "ret", NodeA: "sh1a", NodeB: "sh1b",
		}))
		shorts = append(shorts,
			[2]string{"sh0b", "s1"}, [2]string{"sh1b", "s1"},
			[2]string{"sh0a", "r0"}, [2]string{"sh1a", "r0"},
		)
	}
	solver, err := fasthenry.NewSolver(lay, segs,
		fasthenry.Port{Plus: "s0", Minus: "r0"}, shorts, f,
		fasthenry.Options{MaxPerSide: 2})
	if err != nil {
		return 0, 0, err
	}
	z, err := solver.Impedance(f)
	if err != nil {
		return 0, 0, err
	}
	r, l = fasthenry.RL(z, f)
	return r, l, nil
}

// PlaneSpec describes a signal with a dedicated ground "plane" —
// emulated, as real extractors do, by a dense array of grounded strips
// on the adjacent layer — versus coplanar shields.
type PlaneSpec struct {
	Length      float64
	SignalW     float64
	PlaneStrips int // strips emulating the plane
	StripW      float64
	StripGap    float64
	ShieldGap   float64 // for the shields alternative
}

// DefaultPlaneSpec sizes a Fig. 6-style structure.
func DefaultPlaneSpec() PlaneSpec {
	return PlaneSpec{
		Length: 1500e-6, SignalW: 2e-6,
		PlaneStrips: 7, StripW: 6e-6, StripGap: 1e-6,
		ShieldGap: 1e-6,
	}
}

// PlaneVariant selects the return structure of a Fig. 6 experiment.
type PlaneVariant int

// Variants for LOverFrequency.
const (
	VariantFarReturn PlaneVariant = iota // lone distant return
	VariantShields                       // coplanar shields (Fig. 5)
	VariantPlane                         // ground plane below (Fig. 6)
)

// LOverFrequency extracts the loop inductance of the chosen variant at
// each frequency — the data behind Fig. 6's "L with ground planes vs
// with shields vs frequency" plot.
func LOverFrequency(spec PlaneSpec, variant PlaneVariant, freqs []float64) ([]fasthenry.Point, error) {
	layers := grid.StandardLayers() // [0] = plane layer, [1] = signal layer
	lay := geom.NewLayout(layers)
	segs := []int{lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: spec.Length, Width: spec.SignalW,
		Net: "sig", NodeA: "s0", NodeB: "s1",
	})}
	shorts := [][2]string{}
	// A far return always exists so every variant has a DC loop.
	segs = append(segs, lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: 80e-6,
		Length: spec.Length, Width: spec.SignalW,
		Net: "ret", NodeA: "r0", NodeB: "r1",
	}))
	shorts = append(shorts, [2]string{"s1", "r1"})
	switch variant {
	case VariantFarReturn:
	case VariantShields:
		d := spec.SignalW + spec.ShieldGap
		for k, y := range []float64{-d, d} {
			a, b := fmt.Sprintf("sh%da", k), fmt.Sprintf("sh%db", k)
			segs = append(segs, lay.AddSegment(geom.Segment{
				Layer: 1, Dir: geom.DirX, X0: 0, Y0: y,
				Length: spec.Length, Width: spec.SignalW,
				Net: "ret", NodeA: a, NodeB: b,
			}))
			shorts = append(shorts, [2]string{b, "s1"}, [2]string{a, "r0"})
		}
	case VariantPlane:
		pitch := spec.StripW + spec.StripGap
		y0 := -float64(spec.PlaneStrips-1) / 2 * pitch
		for k := 0; k < spec.PlaneStrips; k++ {
			a, b := fmt.Sprintf("p%da", k), fmt.Sprintf("p%db", k)
			segs = append(segs, lay.AddSegment(geom.Segment{
				Layer: 0, Dir: geom.DirX, X0: 0, Y0: y0 + float64(k)*pitch,
				Length: spec.Length, Width: spec.StripW,
				Net: "ret", NodeA: a, NodeB: b,
			}))
			shorts = append(shorts, [2]string{b, "s1"}, [2]string{a, "r0"})
		}
	default:
		return nil, fmt.Errorf("design: unknown plane variant %d", variant)
	}
	fRef := freqs[len(freqs)-1]
	solver, err := fasthenry.NewSolver(lay, segs,
		fasthenry.Port{Plus: "s0", Minus: "r0"}, shorts, fRef,
		fasthenry.Options{MaxPerSide: 2})
	if err != nil {
		return nil, err
	}
	return solver.Sweep(freqs)
}

// InterdigitSpec describes the Fig. 7 comparison: a solid wide wire vs
// the same footprint split into fingers with grounded shields between.
type InterdigitSpec struct {
	Length   float64
	TotalW   float64 // footprint width
	NFingers int
	ShieldW  float64
	Gap      float64
	FarRetD  float64
}

// DefaultInterdigitSpec sizes a wide clock spine.
func DefaultInterdigitSpec() InterdigitSpec {
	return InterdigitSpec{
		Length: 1500e-6, TotalW: 16e-6,
		NFingers: 3, ShieldW: 2e-6, Gap: 1e-6,
		FarRetD: 60e-6,
	}
}

// InterdigitResult reports the metrics the paper says inter-digitating
// trades: loop inductance down, resistance and capacitance up.
type InterdigitResult struct {
	LoopL float64
	LoopR float64
	// CTotal is the signal net's total capacitance (ground + coupling
	// to shields).
	CTotal float64
	// SignalMetalW is the summed signal conductor width.
	SignalMetalW float64
}

// Interdigitate evaluates either the solid wire (fingers=false) or the
// inter-digitated version of the spec at frequency f.
func Interdigitate(spec InterdigitSpec, fingers bool, f float64) (InterdigitResult, error) {
	lay := geom.NewLayout(topLayer())
	var segs []int
	var res InterdigitResult
	shorts := [][2]string{}
	// Far return (always).
	segs = append(segs, lay.AddSegment(geom.Segment{
		Layer: 0, Dir: geom.DirX, X0: 0, Y0: spec.FarRetD,
		Length: spec.Length, Width: 4e-6,
		Net: "ret", NodeA: "r0", NodeB: "r1",
	}))
	if !fingers {
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: 0,
			Length: spec.Length, Width: spec.TotalW,
			Net: "sig", NodeA: "s0", NodeB: "s1",
		}))
		res.SignalMetalW = spec.TotalW
		shorts = append(shorts, [2]string{"s1", "r1"})
	} else {
		n := spec.NFingers
		if n < 2 {
			return res, fmt.Errorf("design: interdigitation needs >= 2 fingers")
		}
		nShields := n - 1
		fingerW := (spec.TotalW - float64(nShields)*spec.ShieldW - float64(2*nShields)*spec.Gap) / float64(n)
		if fingerW <= 0 {
			return res, fmt.Errorf("design: footprint too narrow for %d fingers", n)
		}
		res.SignalMetalW = fingerW * float64(n)
		y := -spec.TotalW / 2
		for k := 0; k < n; k++ {
			yc := y + fingerW/2
			a, b := "s0", "s1"
			if k > 0 {
				// All fingers share end nodes (tied at both ends).
				a, b = fmt.Sprintf("f%da", k), fmt.Sprintf("f%db", k)
				shorts = append(shorts, [2]string{a, "s0"}, [2]string{b, "s1"})
			}
			segs = append(segs, lay.AddSegment(geom.Segment{
				Layer: 0, Dir: geom.DirX, X0: 0, Y0: yc,
				Length: spec.Length, Width: fingerW,
				Net: "sig", NodeA: a, NodeB: b,
			}))
			y += fingerW + spec.Gap
			if k < nShields {
				sa, sb := fmt.Sprintf("sh%da", k), fmt.Sprintf("sh%db", k)
				segs = append(segs, lay.AddSegment(geom.Segment{
					Layer: 0, Dir: geom.DirX, X0: 0, Y0: y + spec.ShieldW/2,
					Length: spec.Length, Width: spec.ShieldW,
					Net: "ret", NodeA: sa, NodeB: sb,
				}))
				shorts = append(shorts, [2]string{sa, "r0"}, [2]string{sb, "r1"})
				y += spec.ShieldW + spec.Gap
			}
		}
		shorts = append(shorts, [2]string{"s1", "r1"})
	}
	solver, err := fasthenry.NewSolver(lay, segs,
		fasthenry.Port{Plus: "s0", Minus: "r0"}, shorts, f,
		fasthenry.Options{MaxPerSide: 2})
	if err != nil {
		return res, err
	}
	z, err := solver.Impedance(f)
	if err != nil {
		return res, err
	}
	res.LoopR, res.LoopL = fasthenry.RL(z, f)
	// Capacitance of the signal net: ground + coupling contributions.
	for _, si := range lay.SegmentsOnNet("sig") {
		res.CTotal += extract.GroundCap(lay, si)
		for _, sj := range lay.SegmentsOnNet("ret") {
			res.CTotal += extract.CouplingCap(lay, si, sj)
		}
	}
	return res, nil
}
