package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
)

// ACStimulus names the sources to excite in an AC analysis with unit
// (or given) complex amplitudes. Sources not listed are zeroed (voltage
// sources become shorts, current sources opens), the standard AC
// small-signal convention.
type ACStimulus struct {
	VSourceAmps map[int]complex128 // VSource index -> amplitude
	ISourceAmps map[int]complex128 // ISource index -> amplitude
}

// acMatrix derives the pencil G + gmin·I(nodes) + jωC of a linear
// netlist over its MNA pattern, zero-sum positions kept.
func acMatrix(n *circuit.Netlist, omega float64) *matrix.CCSC {
	sm := circuit.BuildSparse(n)
	return circuit.Derive(sm, true, func(i, j int, g, c float64) complex128 {
		return complex(sm.WithGmin(i, j, g, gmin), omega*c)
	})
}

// acRHS builds the complex stimulus vector.
func acRHS(n *circuit.Netlist, stim ACStimulus) []complex128 {
	b := make([]complex128, n.Size())
	for vi, amp := range stim.VSourceAmps {
		b[n.NumNodes()+n.VSources[vi].Branch] += amp
	}
	for ii, amp := range stim.ISourceAmps {
		s := n.ISources[ii]
		if s.A >= 0 {
			b[s.A] -= amp
		}
		if s.B >= 0 {
			b[s.B] += amp
		}
	}
	return b
}

// AC solves the complex MNA system (G + jωC) X = B of the netlist at
// angular frequency omega and returns the full complex state vector,
// factoring the pencil once on the sparse LU.
func AC(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
	if len(n.MOSFETs) != 0 {
		return nil, fmt.Errorf("sim: AC analysis of nonlinear netlists is not supported (linearize first)")
	}
	f, err := matrix.FactorSparseCLU(acMatrix(n, omega))
	if err != nil {
		return nil, err
	}
	return f.Solve(acRHS(n, stim))
}

// InputImpedance computes Z_in(f) = V/I seen by voltage source vi: the
// source is driven with 1V and Z = 1 / (-I_branch) (branch current flows
// A->B inside the source, so the current delivered to the circuit is
// -I_branch).
func InputImpedance(n *circuit.Netlist, vi int, freq float64) (complex128, error) {
	x, err := AC(n, 2*math.Pi*freq, ACStimulus{VSourceAmps: map[int]complex128{vi: 1}})
	if err != nil {
		return 0, err
	}
	i := x[n.BranchOfVSource(vi)]
	if cmplx.Abs(i) == 0 {
		return cmplx.Inf(), nil
	}
	return 1 / -i, nil
}
