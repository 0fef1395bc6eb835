// Package supply analyzes power-grid noise — the "increased power grid
// noise" of the paper's introduction, produced by the very current
// loops §2 dissects: switching currents drawn through the grid's
// resistance (IR drop) and through the package/grid inductance (Ldi/dt
// droop), with on-chip decoupling capacitance as the counterweight.
//
// The analyzer builds the full §3 PEEC model of a grid, applies
// localized switching-current bursts, and reports the worst droop and
// its static/dynamic decomposition, plus sweep helpers for the two
// design levers (decap budget, package choice).
package supply

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
	"inductance101/internal/decap"
	"inductance101/internal/extract"
	"inductance101/internal/grid"
	"inductance101/internal/pkgmodel"
	"inductance101/internal/sim"
)

// Burst is one localized switching event drawing current from VDD to
// GND at grid position (X, Y).
type Burst struct {
	X, Y  float64
	Peak  float64 // A
	T0    float64 // onset
	TRise float64 // ramp to peak
	TFall float64 // decay back to zero
}

// Spec configures a supply-noise analysis.
type Spec struct {
	Grid       grid.Spec
	Vdd        float64
	Package    pkgmodel.Connection
	DecapWidth float64 // total static transistor width (um); 0 = none
	Bursts     []Burst
	TStop      float64
	TStep      float64
}

// DefaultSpec gives a 4x4 grid with a single centre burst.
func DefaultSpec() Spec {
	g := grid.Spec{NX: 4, NY: 4, Pitch: 150e-6, Width: 4e-6, LayerX: 0, LayerY: 1, ViaR: 0.4}
	return Spec{
		Grid: g, Vdd: 1.8,
		Package:    pkgmodel.FlipChip(),
		DecapWidth: 2e4,
		Bursts: []Burst{{
			X: 1.5 * g.Pitch, Y: 1.5 * g.Pitch,
			Peak: 25e-3, T0: 0.2e-9, TRise: 0.1e-9, TFall: 0.3e-9,
		}},
		TStop: 2e-9, TStep: 2e-12,
	}
}

// Report is the analysis outcome.
type Report struct {
	// WorstDroop is the largest VDD dip below Vdd anywhere on the grid;
	// WorstBounce the largest GND rise. WorstNode names the dip site.
	WorstDroop  float64
	WorstBounce float64
	WorstNode   string
	// StaticIR is the DC drop at the same total current drawn steadily
	// — the resistive floor; Dynamic = WorstDroop - StaticIR is the
	// inductive/charge-transient excess.
	StaticIR float64
	Dynamic  float64
	// NodeDroop maps every VDD crossing to its worst dip.
	NodeDroop map[string]float64
}

// Analyze runs the static reference solve and the transient on one
// build of the grid model.
func Analyze(spec Spec) (*Report, error) {
	if len(spec.Bursts) == 0 {
		return nil, fmt.Errorf("supply: no bursts")
	}
	if spec.TStop <= 0 || spec.TStep <= 0 {
		return nil, fmt.Errorf("supply: bad transient window")
	}
	m, n, err := build(spec)
	if err != nil {
		return nil, err
	}
	// Static reference: the same peak current drawn steadily — pure IR.
	// The DC sources come off again before the bursts go on.
	base := len(n.ISources)
	for k, bu := range spec.Bursts {
		vddN, gndN := m.NearestGridNodes(bu.X, bu.Y)
		n.AddI(fmt.Sprintf("dc%d", k), vddN, gndN, circuit.DC(bu.Peak))
	}
	staticIR, err := grid.IRDropDCSparseChol(m, n, spec.Vdd)
	if err != nil {
		return nil, fmt.Errorf("supply: static reference: %w", err)
	}
	n.ISources = n.ISources[:base]

	// Transient with the burst waveforms.
	for k, bu := range spec.Bursts {
		vddN, gndN := m.NearestGridNodes(bu.X, bu.Y)
		n.AddI(fmt.Sprintf("burst%d", k), vddN, gndN, circuit.PWL{
			Times:  []float64{bu.T0, bu.T0 + bu.TRise, bu.T0 + bu.TRise + bu.TFall},
			Values: []float64{0, bu.Peak, 0},
		})
	}
	res, err := sim.Tran(n, sim.TranOptions{TStop: spec.TStop, TStep: spec.TStep})
	if err != nil {
		return nil, fmt.Errorf("supply: transient: %w", err)
	}
	rep := &Report{NodeDroop: make(map[string]float64), StaticIR: staticIR}
	for i := 0; i < spec.Grid.NY; i++ {
		for j := 0; j < spec.Grid.NX; j++ {
			node := m.VddX[i][j]
			v, err := res.V(node)
			if err != nil {
				continue
			}
			dip := 0.0
			for _, x := range v {
				if d := spec.Vdd - x; d > dip {
					dip = d
				}
			}
			rep.NodeDroop[node] = dip
			if dip > rep.WorstDroop {
				rep.WorstDroop = dip
				rep.WorstNode = node
			}
			g, err := res.V(m.GndX[i][j])
			if err != nil {
				continue
			}
			if b := sim.PeakAbs(g); b > rep.WorstBounce {
				rep.WorstBounce = b
			}
		}
	}
	rep.Dynamic = math.Max(rep.WorstDroop-rep.StaticIR, 0)
	return rep, nil
}

// build assembles the grid PEEC model with package and decap.
func build(spec Spec) (*grid.Model, *circuit.Netlist, error) {
	m, err := grid.BuildPowerGrid(grid.StandardLayers(), spec.Grid)
	if err != nil {
		return nil, nil, err
	}
	par := extract.Extract(m.Layout, extract.DefaultOptions())
	p, err := grid.BuildPEECNetlist(m.Layout, par, grid.PEECOptions{Mode: grid.ModeRLC})
	if err != nil {
		return nil, nil, err
	}
	n := p.Netlist
	if err := m.AttachPackage(n, spec.Package, spec.Vdd); err != nil {
		return nil, nil, err
	}
	if spec.DecapWidth > 0 {
		ref, err := decap.MeasureBlock(decap.Typical2001(), 100, 10, 1e6)
		if err != nil {
			return nil, nil, err
		}
		est, err := decap.NewEstimator(ref, 0.85)
		if err != nil {
			return nil, nil, err
		}
		m.AddDecap(n, est, spec.DecapWidth)
	}
	return m, n, nil
}

// DecapSweep reports the worst droop at each decap budget.
func DecapSweep(spec Spec, widths []float64) ([]float64, error) {
	out := make([]float64, 0, len(widths))
	for _, w := range widths {
		s := spec
		s.DecapWidth = w
		r, err := Analyze(s)
		if err != nil {
			return nil, fmt.Errorf("supply: decap %g: %w", w, err)
		}
		out = append(out, r.WorstDroop)
	}
	return out, nil
}

// PackageComparison returns the worst droop under each package model.
func PackageComparison(spec Spec, pkgs map[string]pkgmodel.Connection) (map[string]float64, error) {
	out := make(map[string]float64, len(pkgs))
	for name, conn := range pkgs {
		s := spec
		s.Package = conn
		r, err := Analyze(s)
		if err != nil {
			return nil, fmt.Errorf("supply: package %s: %w", name, err)
		}
		out[name] = r.WorstDroop
	}
	return out, nil
}
