package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"inductance101/internal/circuit"
	"inductance101/internal/matrix"
	"inductance101/internal/sweep"
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

// acEntry is one structurally nonzero position of the MNA pencil
// (G, C); the complex system matrix at any frequency is assembled from
// these without rescanning any matrix.
type acEntry struct {
	i, j int
	g, c float64
}

// acPattern caches the union sparsity structure of an MNA pencil so a
// frequency sweep pays the pattern extraction once instead of once per
// point. The build walks the netlist stamps (O(nnz log nnz)); the old
// dense G/C scan, O(size^2) per sweep, is gone. Large systems carry the
// CSC skeleton of the same entries plus a symbolic factorization shared
// by every frequency point; small systems keep the dense complex solve.
type acPattern struct {
	size    int
	nn      int       // number of nodes (gmin targets)
	entries []acEntry // row-major; gmin not folded in (dense path adds it)
	// Sparse skeleton: the same entries column-major as a CCSC pattern
	// with per-position G and C values; gv has acGmin folded into the
	// node diagonals.
	cpat   *matrix.CCSC
	gv, cv []float64
	// base is the symbolic-donor factorization shared across a sweep;
	// prime() fills it deterministically before any parallel solves.
	base *matrix.SparseCLU
	// pol pins the solver resources of the analysis the pattern serves.
	pol Policy
}

func buildACPattern(m *circuit.MNA) *acPattern { return acPatternFromNetlist(m.N) }

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
	// The gmin diagonals must exist structurally for the sparse path.
	for i := 0; i < nn; i++ {
		if _, ok := uni[[2]int{i, i}]; !ok {
			uni[[2]int{i, i}] = gc{}
		}
	}
	p := &acPattern{size: size, nn: nn}
	p.entries = make([]acEntry, 0, len(uni))
	for k, e := range uni {
		p.entries = append(p.entries, acEntry{i: k[0], j: k[1], g: e.g, c: e.c})
	}
	sort.Slice(p.entries, func(a, b int) bool {
		if p.entries[a].i != p.entries[b].i {
			return p.entries[a].i < p.entries[b].i
		}
		return p.entries[a].j < p.entries[b].j
	})

	// Column-major copy as the CSC skeleton for the sparse path.
	idx := make([]int, len(p.entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := p.entries[idx[a]], p.entries[idx[b]]
		if ea.j != eb.j {
			return ea.j < eb.j
		}
		return ea.i < eb.i
	})
	colPtr := make([]int, size+1)
	rowIdx := make([]int, len(idx))
	p.gv = make([]float64, len(idx))
	p.cv = make([]float64, len(idx))
	for pos, id := range idx {
		e := p.entries[id]
		colPtr[e.j+1]++
		rowIdx[pos] = e.i
		g := e.g
		if e.i == e.j && e.i < nn {
			g += acGmin
		}
		p.gv[pos] = g
		p.cv[pos] = e.c
	}
	for j := 0; j < size; j++ {
		colPtr[j+1] += colPtr[j]
	}
	p.cpat = matrix.CSCFromParts(size, size, colPtr, rowIdx, make([]complex128, len(idx)))
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

// prime factors the base symbolic pattern at the given frequency. Call
// it once, serially, before fanning a sweep out — every subsequent
// point refactors numerically over this pattern, so results do not
// depend on which point happens to run first.
func (p *acPattern) prime(omega float64) error {
	if !p.pol.sparseAt(p.size) || p.base != nil {
		return nil
	}
	f, err := matrix.FactorSparseCLUWorkers(p.assemble(omega), p.pol.Workers)
	if err != nil {
		return err
	}
	p.base = f
	return nil
}

// solve assembles (G + jωC) and solves for the given stimulus. Systems
// at or above the sparse threshold go through the sparse LU, reusing
// the primed symbolic pattern when present; smaller systems assemble a
// CDense — entries in the same accumulation order as the dense MNA
// build, so the matrix and the solution are identical to the historical
// dense scan.
func (p *acPattern) solve(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
	if p.pol.sparseAt(p.size) {
		return p.solveSparse(n, omega, stim)
	}
	a := matrix.NewCDense(p.size, p.size)
	for _, e := range p.entries {
		a.Set(e.i, e.j, complex(e.g, omega*e.c))
	}
	// gmin for floating nodes.
	for i := 0; i < p.nn; i++ {
		a.Add(i, i, acGmin)
	}
	return matrix.SolveComplex(a, p.rhs(n, stim))
}

func (p *acPattern) solveSparse(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
	a := p.assemble(omega)
	var f *matrix.SparseCLU
	if p.base != nil {
		cand := p.base.NewNumeric()
		if err := cand.Refactor(a); err == nil {
			f = cand
		}
	}
	if f == nil {
		fresh, err := matrix.FactorSparseCLUWorkers(a, p.pol.Workers)
		if err != nil {
			return nil, err
		}
		f = fresh
	}
	return f.Solve(p.rhs(n, stim))
}

// AC solves the complex MNA system (G + jωC) X = B at angular frequency
// omega and returns the full complex state vector.
func AC(m *circuit.MNA, omega float64, stim ACStimulus) ([]complex128, error) {
	if len(m.N.MOSFETs) != 0 {
		return nil, fmt.Errorf("sim: AC analysis of nonlinear netlists is not supported (linearize first)")
	}
	return buildACPattern(m).solve(m.N, omega, stim)
}

// ACPoint is one row of a frequency sweep. Interp marks points filled
// by the adaptive sweep's rational interpolant instead of a solve.
type ACPoint struct {
	Freq   float64
	V      complex128
	Interp bool
}

// ACSweep runs AC at logarithmically spaced frequencies from fStart to
// fStop (inclusive, pointsPerDecade per decade) and records the complex
// voltage of the probe node, under the process-default solver policy.
// ACSweepPolicy pins the policy per run.
func ACSweep(n *circuit.Netlist, probe string, stim ACStimulus, fStart, fStop float64, pointsPerDecade int) ([]ACPoint, error) {
	return ACSweepPolicy(n, probe, stim, fStart, fStop, pointsPerDecade, Policy{})
}

// ACSweepPolicy is ACSweep under an explicit solver policy. The G/C
// sparsity pattern is extracted once and the frequency points —
// independent complex solves — run in parallel (the policy's worker
// count, or GOMAXPROCS when unset, controls the fan-out).
// Under pol.SweepMode exact (and auto below sweep.AutoThreshold
// points) results are bit-identical to the serial sweep: each point is
// one self-contained solve. Under adaptive (or auto at enough points)
// only the anchor frequencies the rational fit requests are solved and
// the rest are interpolated within pol.SweepTol (ACPoint.Interp marks
// them).
func ACSweepPolicy(n *circuit.Netlist, probe string, stim ACStimulus, fStart, fStop float64, pointsPerDecade int, pol Policy) ([]ACPoint, error) {
	if fStart <= 0 || fStop <= fStart {
		return nil, fmt.Errorf("sim: bad AC sweep range [%g, %g]", fStart, fStop)
	}
	if pointsPerDecade <= 0 {
		pointsPerDecade = 10
	}
	idx, err := n.NodeIndex(probe)
	if err != nil {
		return nil, err
	}
	if len(n.MOSFETs) != 0 {
		return nil, fmt.Errorf("sim: AC analysis of nonlinear netlists is not supported (linearize first)")
	}
	pat := acPatternFromNetlist(n)
	pat.pol = pol
	if err := pat.prime(2 * math.Pi * fStart); err != nil {
		return nil, fmt.Errorf("sim: AC at %g Hz: %w", fStart, err)
	}
	decades := math.Log10(fStop / fStart)
	nPts := int(decades*float64(pointsPerDecade)) + 1
	fs := make([]float64, nPts+1)
	for k := range fs {
		fs[k] = fStart * math.Pow(10, decades*float64(k)/float64(nPts))
	}

	solveAt := func(k int) (complex128, error) {
		x, err := pat.solve(n, 2*math.Pi*fs[k], stim)
		if err != nil {
			return 0, fmt.Errorf("sim: AC at %g Hz: %w", fs[k], err)
		}
		if idx >= 0 {
			return x[idx], nil
		}
		return 0, nil
	}

	if pol.SweepMode.Adapt(len(fs)) {
		return acSweepAdaptive(fs, pol, solveAt)
	}

	out := make([]ACPoint, len(fs))
	errs := make([]error, len(fs))
	matrix.ParallelRangeWorkers(pol.Workers, len(fs), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			v, err := solveAt(k)
			if err != nil {
				errs[k] = err
				return
			}
			out[k] = ACPoint{Freq: fs[k], V: v}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// acSweepAdaptive runs the anchor-and-fit engine over an ascending AC
// grid: anchor batches fan out under the policy's worker count, the
// remaining probe voltages come from the cross-validated rational
// interpolant.
func acSweepAdaptive(fs []float64, pol Policy, solveAt func(k int) (complex128, error)) ([]ACPoint, error) {
	batch := func(idxs []int) ([]complex128, error) {
		vals := make([]complex128, len(idxs))
		errs := make([]error, len(idxs))
		matrix.ParallelRangeWorkers(pol.Workers, len(idxs), 1, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				vals[k], errs[k] = solveAt(idxs[k])
				if errs[k] != nil {
					return
				}
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return vals, nil
	}
	res, err := sweep.Adaptive(fs, sweep.Options{Tol: pol.SweepTol}, batch)
	if err != nil {
		return nil, err
	}
	out := make([]ACPoint, len(fs))
	for k := range fs {
		out[k] = ACPoint{Freq: fs[k], V: res.Values[k], Interp: !res.Solved[k]}
	}
	return out, nil
}

// InputImpedance computes Z_in(f) = V/I seen by voltage source vi: the
// source is driven with 1V and Z = 1 / (-I_branch) (branch current flows
// A->B inside the source, so the current delivered to the circuit is
// -I_branch).
func InputImpedance(n *circuit.Netlist, vi int, freq float64) (complex128, error) {
	m := circuit.Build(n)
	x, err := AC(m, 2*math.Pi*freq, ACStimulus{VSourceAmps: map[int]complex128{vi: 1}})
	if err != nil {
		return 0, err
	}
	i := x[n.BranchOfVSource(vi)]
	if cmplx.Abs(i) == 0 {
		return cmplx.Inf(), nil
	}
	return 1 / -i, nil
}
