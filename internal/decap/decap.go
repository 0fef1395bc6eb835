// Package decap estimates the device decoupling capacitance of
// non-switching gates, following the statistical methodology the paper
// cites (Panda et al., ISLPED 2000): measure the small-signal rail-to-
// rail capacitance of a representative circuit block, then translate to
// other blocks in proportion to their total transistor width. During
// normal operation only 10-20% of gates switch; the parasitic
// capacitance of the remaining 80-90% acts as distributed decoupling
// between the power and ground grids.
package decap

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
	"inductance101/internal/sim"
)

// GateModel are the per-micron parasitics of a static (non-switching)
// gate: the series channel/diffusion resistance and the effective
// rail-to-rail capacitance.
type GateModel struct {
	// CapPerWidth is the effective decoupling capacitance per micron of
	// transistor width, F/um. 2001-era CMOS sits around 1-2 fF/um.
	CapPerWidth float64
	// ResPerWidth is the series resistance times width, ohm*um (the
	// channel resistance scales as 1/W).
	ResPerWidth float64
}

// Typical2001 returns representative values for a 0.18um-class process.
func Typical2001() GateModel {
	return GateModel{CapPerWidth: 1.5e-15, ResPerWidth: 2000}
}

// RepresentativeBlock is a circuit block whose decap was characterized
// by small-signal analysis.
type RepresentativeBlock struct {
	Name       string
	TotalWidth float64 // total transistor width, um
	MeasuredC  float64 // measured rail-to-rail decap, F
	SeriesR    float64 // effective series resistance, ohm
}

// MeasureBlock performs the "small-signal analysis of a representative
// circuit block": it builds nGates static gates (each an R-C branch
// between the rails, per gm), drives the rail pair with a 1V AC source,
// and extracts C_eff = Im(Y)/omega at the given frequency. At
// frequencies well below 1/(2 pi R C) this recovers the lumped sum; at
// higher frequencies the series resistance shields part of the
// capacitance, exactly the effect that motivates frequency-aware decap
// modeling.
func MeasureBlock(gm GateModel, nGates int, widthPerGate, freq float64) (RepresentativeBlock, error) {
	if nGates <= 0 || widthPerGate <= 0 || freq <= 0 {
		return RepresentativeBlock{}, fmt.Errorf("decap: bad block parameters")
	}
	n := circuit.New()
	vi := n.AddV("vac", "vdd", "0", circuit.DC(0))
	for i := 0; i < nGates; i++ {
		mid := fmt.Sprintf("g%d", i)
		n.AddR(fmt.Sprintf("rg%d", i), "vdd", mid, gm.ResPerWidth/widthPerGate)
		n.AddC(fmt.Sprintf("cg%d", i), mid, "0", gm.CapPerWidth*widthPerGate)
	}
	omega := 2 * math.Pi * freq
	x, err := sim.AC(n, omega, sim.ACStimulus{VSourceAmps: map[int]complex128{vi: 1}})
	if err != nil {
		return RepresentativeBlock{}, err
	}
	// Branch current flows A->B inside the source; admittance seen by
	// the rails is -I.
	y := -x[n.BranchOfVSource(vi)]
	c := imag(y) / omega
	r := 0.0
	if real(y) > 0 {
		r = real(y) / (real(y)*real(y) + imag(y)*imag(y))
	}
	return RepresentativeBlock{
		Name:       fmt.Sprintf("rep%dx%gum", nGates, widthPerGate),
		TotalWidth: float64(nGates) * widthPerGate,
		MeasuredC:  c,
		SeriesR:    r,
	}, nil
}

// Estimator translates a representative block's measurement to other
// blocks by relative total transistor width.
type Estimator struct {
	Ref RepresentativeBlock
	// StaticFraction is the fraction of gates that do NOT switch and
	// therefore contribute decap (paper: 0.8-0.9).
	StaticFraction float64
}

// NewEstimator validates and builds an estimator.
func NewEstimator(ref RepresentativeBlock, staticFraction float64) (*Estimator, error) {
	if ref.TotalWidth <= 0 || ref.MeasuredC <= 0 {
		return nil, fmt.Errorf("decap: reference block not characterized")
	}
	if staticFraction <= 0 || staticFraction > 1 {
		return nil, fmt.Errorf("decap: static fraction %g outside (0, 1]", staticFraction)
	}
	return &Estimator{Ref: ref, StaticFraction: staticFraction}, nil
}

// BlockDecap returns the estimated decoupling capacitance and its
// effective series resistance for a block of the given total transistor
// width (um).
func (e *Estimator) BlockDecap(totalWidth float64) (c, r float64) {
	scale := totalWidth / e.Ref.TotalWidth * e.StaticFraction
	c = e.Ref.MeasuredC * scale
	if scale > 0 {
		// Series resistance scales inversely with the amount of
		// parallel static width.
		r = e.Ref.SeriesR / scale
	}
	return c, r
}

// Stamp adds the estimated block decap between the given rail nodes as
// a series R-C (the frequency-aware form), returning the internal node
// name.
func (e *Estimator) Stamp(n *circuit.Netlist, prefix, vdd, gnd string, totalWidth float64) string {
	c, r := e.BlockDecap(totalWidth)
	mid := prefix + ".dcap"
	if r <= 0 {
		r = 1e-3
	}
	n.AddR(prefix+".rd", vdd, mid, r)
	n.AddC(prefix+".cd", mid, gnd, c)
	return mid
}
