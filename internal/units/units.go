// Package units provides the physical constants and unit helpers used
// throughout the inductance-analysis library.
//
// All quantities in this repository are SI unless a name says otherwise:
// lengths in metres, resistance in ohms, inductance in henries,
// capacitance in farads, frequency in hertz, time in seconds.
package units

import (
	"math"
	"strconv"
)

// Physical constants (SI).
const (
	// Mu0 is the permeability of free space, H/m.
	Mu0 = 4e-7 * math.Pi
	// Eps0 is the permittivity of free space, F/m.
	Eps0 = 8.8541878128e-12
	// EpsSiO2 is the relative permittivity of silicon dioxide, the
	// inter-layer dielectric assumed by the Chern-style capacitance
	// models in internal/extract.
	EpsSiO2 = 3.9
	// RhoCu is the resistivity of copper interconnect at 25C, ohm*m.
	// On-chip copper is slightly worse than bulk due to barriers and
	// grain scattering; 2.2e-8 is a typical 2001-era value.
	RhoCu = 2.2e-8
)

// SkinDepth returns the skin depth in metres for a conductor of
// resistivity rho (ohm*m) at frequency f (Hz). It is the depth at which
// current density falls to 1/e of its surface value and controls how
// finely internal/fasthenry must discretize conductor cross-sections.
func SkinDepth(rho, f float64) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(rho / (math.Pi * f * Mu0))
}

// siPrefixes maps metric prefixes to multipliers, for FormatSI.
var siPrefixes = []struct {
	mult   float64
	symbol string
}{
	{1e12, "T"},
	{1e9, "G"},
	{1e6, "M"},
	{1e3, "k"},
	{1, ""},
	{1e-3, "m"},
	{1e-6, "u"},
	{1e-9, "n"},
	{1e-12, "p"},
	{1e-15, "f"},
	{1e-18, "a"},
}

// FormatSI renders v with an SI prefix and the given unit symbol, e.g.
// FormatSI(2.2e-9, "H") == "2.2nH". Zero renders without a prefix.
func FormatSI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	av := math.Abs(v)
	for _, p := range siPrefixes {
		if av >= p.mult {
			return trimFloat(v/p.mult) + p.symbol + unit
		}
	}
	last := siPrefixes[len(siPrefixes)-1]
	return trimFloat(v/last.mult) + last.symbol + unit
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', 4, 64)
	return s
}
