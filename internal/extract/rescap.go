package extract

import (
	"math"

	"inductance101/internal/geom"
	"inductance101/internal/units"
)

// Resistance returns the DC resistance (ohm) of a segment from its
// layer's sheet resistance: R = rho_sheet * length / width. The paper's
// PEEC model treats interconnect resistance as frequency independent;
// frequency-dependent loop resistance comes from internal/fasthenry.
func Resistance(l *geom.Layout, segIdx int) float64 {
	s := &l.Segments[segIdx]
	return l.Layers[s.Layer].SheetRho * s.Length / s.Width
}

// Chern-style empirical capacitance model. The paper cites Chern's
// multilevel-metal CAD models [8]; this implementation uses the same
// functional family (area term plus fractional-power fringe and coupling
// terms fitted to field-solver data — here the widely published
// Sakurai–Tamaru coefficients), which preserves the geometry scaling
// that matters to the inductance-vs-capacitance current-return story.

// GroundCapPerLength returns the capacitance per unit length (F/m) of a
// wire of width w and thickness t at height h over a ground plane,
// including fringe:
//
//	C/l = eps_ox [ 1.15 (w/h) + 2.80 (t/h)^0.222 ].
func GroundCapPerLength(w, t, h float64) float64 {
	if h <= 0 {
		panic("extract: ground capacitance with non-positive height")
	}
	eps := units.EpsSiO2 * units.Eps0
	return eps * (1.15*(w/h) + 2.80*math.Pow(t/h, 0.222))
}

// CouplingCapPerLength returns the line-to-line coupling capacitance per
// unit length (F/m) for two parallel wires of thickness t at height h
// with edge-to-edge spacing s:
//
//	C_c/l = eps_ox [ 0.03 (w/h) + 0.83 (t/h) - 0.07 (t/h)^0.222 ] (s/h)^-1.34.
func CouplingCapPerLength(w, t, h, s float64) float64 {
	if h <= 0 || s <= 0 {
		panic("extract: coupling capacitance with non-positive height or spacing")
	}
	eps := units.EpsSiO2 * units.Eps0
	c := eps * (0.03*(w/h) + 0.83*(t/h) - 0.07*math.Pow(t/h, 0.222)) *
		math.Pow(s/h, -1.34)
	if c < 0 {
		return 0
	}
	return c
}

// GroundCap returns the total capacitance to ground (F) of a segment.
func GroundCap(l *geom.Layout, segIdx int) float64 {
	s := &l.Segments[segIdx]
	ly := l.Layers[s.Layer]
	return GroundCapPerLength(s.Width, ly.Thickness, ly.HBelow) * s.Length
}

// CouplingCap returns the coupling capacitance (F) between two parallel
// same-layer segments over their overlap length, zero when they do not
// run side by side.
func CouplingCap(l *geom.Layout, i, j int) float64 {
	a := &l.Segments[i]
	b := &l.Segments[j]
	if a.Dir != b.Dir || a.Layer != b.Layer {
		return 0
	}
	ov := l.OverlapLength(i, j)
	if ov <= 0 {
		return 0
	}
	sp := l.EdgeSpacing(i, j)
	if sp <= 0 {
		return 0 // overlapping metal is a layout error, not a capacitor
	}
	ly := l.Layers[a.Layer]
	w := math.Min(a.Width, b.Width)
	return CouplingCapPerLength(w, ly.Thickness, ly.HBelow, sp) * ov
}
