package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

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

// acGmin is the floating-node conductance added to every node's
// diagonal in AC analysis.
const acGmin = 1e-12

// acPattern is the union sparsity structure of an MNA pencil
// G + jωC. The build walks the netlist stamps (O(nnz log nnz)) into a
// CSC skeleton with per-position G and C values.
type acPattern struct {
	size int
	nn   int // number of nodes (gmin targets)
	// cpat is the union pattern of G, C and the node diagonals; gv and
	// cv hold G and C per position, with acGmin folded into gv's node
	// diagonals.
	cpat   *matrix.CCSC
	gv, cv []float64
}

func acPatternFromNetlist(n *circuit.Netlist) *acPattern {
	sm := circuit.BuildSparse(n)
	size := sm.Size()
	nn := n.NumNodes()
	type gc struct{ g, c float64 }
	uni := make(map[[2]int]gc, sm.G.NNZ()+sm.C.NNZ())
	sm.G.Each(func(i, j int, v float64) {
		e := uni[[2]int{i, j}]
		e.g = v
		uni[[2]int{i, j}] = e
	})
	sm.C.Each(func(i, j int, v float64) {
		e := uni[[2]int{i, j}]
		e.c = v
		uni[[2]int{i, j}] = e
	})
	// The gmin diagonals must exist structurally.
	for i := 0; i < nn; i++ {
		if _, ok := uni[[2]int{i, i}]; !ok {
			uni[[2]int{i, i}] = gc{}
		}
	}
	keys := make([][2]int, 0, len(uni))
	for k := range uni {
		keys = append(keys, k)
	}
	// Column-major, rows ascending within a column.
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][1] != keys[b][1] {
			return keys[a][1] < keys[b][1]
		}
		return keys[a][0] < keys[b][0]
	})
	p := &acPattern{size: size, nn: nn}
	colPtr := make([]int, size+1)
	rowIdx := make([]int, len(keys))
	p.gv = make([]float64, len(keys))
	p.cv = make([]float64, len(keys))
	for pos, k := range keys {
		i, j := k[0], k[1]
		e := uni[k]
		colPtr[j+1]++
		rowIdx[pos] = i
		g := e.g
		if i == j && i < nn {
			g += acGmin
		}
		p.gv[pos] = g
		p.cv[pos] = e.c
	}
	for j := 0; j < size; j++ {
		colPtr[j+1] += colPtr[j]
	}
	p.cpat = matrix.CSCFromParts(size, size, colPtr, rowIdx, make([]complex128, len(keys)))
	return p
}

// rhs builds the complex stimulus vector.
func (p *acPattern) rhs(n *circuit.Netlist, stim ACStimulus) []complex128 {
	b := make([]complex128, p.size)
	for vi, amp := range stim.VSourceAmps {
		b[p.nn+n.VSources[vi].Branch] += amp
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

// assemble fills a value slice with G + jωC over the CSC skeleton.
func (p *acPattern) assemble(omega float64) *matrix.CCSC {
	vals := make([]complex128, len(p.gv))
	for k := range vals {
		vals[k] = complex(p.gv[k], omega*p.cv[k])
	}
	return p.cpat.WithValues(vals)
}

// solve assembles (G + jωC), factors it once on the sparse LU and
// solves for the given stimulus.
func (p *acPattern) solve(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
	f, err := matrix.FactorSparseCLU(p.assemble(omega))
	if err != nil {
		return nil, err
	}
	return f.Solve(p.rhs(n, stim))
}

// AC solves the complex MNA system (G + jωC) X = B of the netlist at
// angular frequency omega and returns the full complex state vector.
func AC(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
	if len(n.MOSFETs) != 0 {
		return nil, fmt.Errorf("sim: AC analysis of nonlinear netlists is not supported (linearize first)")
	}
	return acPatternFromNetlist(n).solve(n, omega, stim)
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
