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

// acPattern caches the union sparsity structure of an MNA pencil so a
// frequency sweep pays the pattern extraction once instead of once per
// point. The build walks the netlist stamps (O(nnz log nnz)) into a
// CSC skeleton with per-position G and C values, and a primed sweep
// refactors every point numerically over one symbolic factorization.
type acPattern struct {
	size int
	nn   int // number of nodes (gmin targets)
	// cpat is the union pattern of G, C and the node diagonals; gv and
	// cv hold G and C per position, with acGmin folded into gv's node
	// diagonals.
	cpat   *matrix.CCSC
	gv, cv []float64
	// base is the symbolic-donor factorization shared across a sweep;
	// prime() fills it deterministically before any parallel solves.
	base *matrix.SparseCLU
	// pol pins the solver resources of the analysis the pattern serves.
	pol Policy
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

// prime factors the base symbolic pattern at the given frequency. Call
// it once, serially, before fanning a sweep out — every subsequent
// point refactors numerically over this pattern, so results do not
// depend on which point happens to run first.
func (p *acPattern) prime(omega float64) error {
	if p.base != nil {
		return nil
	}
	f, err := matrix.FactorSparseCLUWorkers(p.assemble(omega), p.pol.Workers)
	if err != nil {
		return err
	}
	p.base = f
	return nil
}

// solve assembles (G + jωC) and solves for the given stimulus with the
// sparse LU, refactoring over the primed symbolic pattern when present.
func (p *acPattern) solve(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
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

// AC solves the complex MNA system (G + jωC) X = B of the netlist at
// angular frequency omega and returns the full complex state vector.
func AC(n *circuit.Netlist, omega float64, stim ACStimulus) ([]complex128, error) {
	if len(n.MOSFETs) != 0 {
		return nil, fmt.Errorf("sim: AC analysis of nonlinear netlists is not supported (linearize first)")
	}
	return acPatternFromNetlist(n).solve(n, omega, stim)
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
