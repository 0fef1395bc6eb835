// Package tline implements the classical criterion for when on-chip
// inductance matters (Deutsch et al., "When are Transmission-Line
// Effects Important for On-Chip Interconnections?", IEEE T-MTT 1997 —
// the paper's reference [1], and the basis for §7's rule that short and
// medium wires behave resistively while long, wide wires behave
// inductively).
//
// For a line with per-unit-length parameters R, L, C driven by an edge
// with rise time tr, transmission-line (inductive) behaviour appears in
// the length window
//
//	tr / (2 sqrt(LC))  <  len  <  2/R * sqrt(L/C)
//
// The lower bound says the wire must be long enough that its time of
// flight is comparable to the edge; the upper bound says it must not be
// so resistive that the line is overdamped. Below the window the wire is
// capacitive/resistive; above it, RC-dominated.
package tline

import (
	"fmt"
	"math"

	"inductance101/internal/extract"
)

// LineParams are per-unit-length line constants (ohm/m, H/m, F/m).
type LineParams struct {
	R, L, C float64
}

// Validate checks physicality.
func (p LineParams) Validate() error {
	if p.R <= 0 || p.L <= 0 || p.C <= 0 {
		return fmt.Errorf("tline: non-positive line parameters %+v", p)
	}
	return nil
}

// FromGeometry derives line constants for a signal wire with a coplanar
// return at the given centre-to-centre distance: R from sheet
// resistance, loop L from the partial formulas, C from the Chern-style
// model (ground plus a coupling share).
func FromGeometry(width, thickness, hBelow, sheetRho, returnDist float64) (LineParams, error) {
	if width <= 0 || thickness <= 0 || returnDist <= width {
		return LineParams{}, fmt.Errorf("tline: bad geometry (w=%g t=%g d=%g)", width, thickness, returnDist)
	}
	// Evaluate per-unit-length values on a 1mm reference length (the
	// partial-inductance log term makes loop L weakly length-dependent;
	// 1mm is the scale the criterion is used at).
	const ref = 1e-3
	ls := extract.SelfInductanceBar(ref, width, thickness)
	m := extract.MutualFilaments(ref, ref, 0, returnDist)
	loopL := (2*ls - 2*m) / ref // signal + identical return
	r := 2 * sheetRho / width   // out and back
	c := extract.GroundCapPerLength(width, thickness, hBelow)
	p := LineParams{R: r, L: loopL, C: c}
	return p, p.Validate()
}

// CriticalRange returns the length window [lMin, lMax] where
// transmission-line effects matter for edges of rise time tr. ok is
// false when the window is empty (the wire is too resistive for
// inductance to ever matter at this edge rate).
func CriticalRange(p LineParams, tRise float64) (lMin, lMax float64, ok bool) {
	if err := p.Validate(); err != nil || tRise <= 0 {
		return 0, 0, false
	}
	lMin = tRise / (2 * math.Sqrt(p.L*p.C))
	lMax = 2 / p.R * math.Sqrt(p.L/p.C)
	return lMin, lMax, lMax > lMin
}
