// Package sim is the SPICE-lite circuit simulator: DC operating point
// (Newton-Raphson over the level-1 MOSFET models), transient analysis
// (trapezoidal or backward-Euler companion integration on the MNA
// system), and AC analysis (complex MNA solve per frequency), all on the
// sparse LU.
//
// It plays the role MCSPICE plays in the paper's experiments: the
// reference engine the PEEC, sparsified-PEEC, reduced-order and loop
// models are all simulated with.
package sim

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
)

// Method selects the transient integration scheme.
type Method int

// Integration methods. Trapezoidal is second-order and non-dissipative
// (it preserves the ringing the paper attributes to inductance);
// backward Euler is first-order and numerically damped, useful to
// separate physical from numerical oscillation.
const (
	Trapezoidal Method = iota
	BackwardEuler
)

// Newton and floating-node constants of every analysis.
const (
	// maxNewton bounds Newton iterations per step.
	maxNewton = 50
	// newtonTol is the infinity-norm convergence tolerance on the state
	// update (nanovolt/nanoamp).
	newtonTol = 1e-9
	// gmin is a tiny conductance from every node to ground that keeps
	// the system nonsingular when nodes float at DC (S).
	gmin = 1e-12
)

// TranOptions configures a transient run.
type TranOptions struct {
	TStop  float64 // end time (s)
	TStep  float64 // fixed time step (s)
	Method Method
	// SaveEvery keeps every k-th point (default 1 = all).
	SaveEvery int
}

func (o *TranOptions) setDefaults() error {
	if !(o.TStop > 0 && o.TStep > 0) || math.IsInf(o.TStop, 0) || math.IsInf(o.TStep, 0) {
		return fmt.Errorf("sim: TStop and TStep must be positive and finite (got %g, %g)", o.TStop, o.TStep)
	}
	if o.TStop/o.TStep+0.5 < 1 {
		return fmt.Errorf("sim: TStop %g is under half of TStep %g, so the run has no step", o.TStop, o.TStep)
	}
	if o.Method != Trapezoidal && o.Method != BackwardEuler {
		return fmt.Errorf("sim: unknown method %d", o.Method)
	}
	if o.SaveEvery <= 0 {
		o.SaveEvery = 1
	}
	return nil
}

// alpha is the companion-model factor of C: 2/h for the trapezoidal
// rule, 1/h for backward Euler.
func (o *TranOptions) alpha() float64 {
	if o.Method == BackwardEuler {
		return 1 / o.TStep
	}
	return 2 / o.TStep
}

// TranResult holds a transient waveform set: the state vector at each
// saved time point, with probe helpers keyed by node name.
type TranResult struct {
	Netlist *circuit.Netlist
	Times   []float64
	States  [][]float64 // States[k][unknown]
	// NewtonIters counts total Newton iterations, a cost metric.
	NewtonIters int
}

// V returns the voltage waveform of a named node.
func (r *TranResult) V(node string) ([]float64, error) {
	idx, err := r.Netlist.NodeIndex(node)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(r.Times))
	if idx >= 0 {
		for k, x := range r.States {
			out[k] = x[idx]
		}
	}
	return out, nil
}

// MustV is V but panics on unknown nodes (for tests and examples).
func (r *TranResult) MustV(node string) []float64 {
	v, err := r.V(node)
	if err != nil {
		panic(err)
	}
	return v
}
