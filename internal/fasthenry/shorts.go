package fasthenry

import (
	"fmt"

	"inductance101/internal/matrix"
)

// Alternative shorts over one extraction.
//
// The §5 loop flow extracts every sink's loop with that receiver
// shorted to its local ground. The sinks share every filament, so Zb
// and Lp are the same for all of them; only the node merge differs. A
// short (a, b) is a node merge P, and P A is the shorted incidence, so
//
//	Y_shorted = (P A) Zb⁻¹ (P A)ᵀ = P Y Pᵀ:
//
// row and column a add into b, or drop out when b is the port
// reference. The dense path therefore factors Zb and assembles Y once
// per frequency and folds each short into a copy of Y before the small
// port solve. The iterative paths never form Y; they share the one
// compressed operator and run each short's port GMRES over its own
// incidence and Schur plan.

// nodeMerge joins node from into node into; the ids above from then
// close the gap, so the merged network keeps the original node order
// over one node fewer.
type nodeMerge struct{ from, into int }

func (m nodeMerge) node(n int) int {
	if n == m.from {
		n = m.into
	}
	if n > m.from {
		n--
	}
	return n
}

// ImpedanceEachShort returns the port impedance at each frequency
// under each alternative short: element [i][k] is what a solver built
// by NewSolver with shorts[k] added to its own shorts would return from
// Impedance(freqs[i]). The node names must lie on the solver's
// conductors (a name on none is an error, not a fresh node). The dense
// path factors the branch matrix once per frequency for all shorts;
// the iterative paths share one compressed operator and solve one port
// GMRES per short. The frequencies are independent solves, handed out
// by matrix.ParallelItems over Options.Workers goroutines
// (0 = matrix.Workers, 1 = serial); the result does not depend on the
// worker count.
func (s *Solver) ImpedanceEachShort(freqs []float64, shorts [][2]string) ([][]complex128, error) {
	sibs := make([]*Solver, len(shorts))
	rows := make([][]int, len(shorts))
	for k, sh := range shorts {
		var err error
		if sibs[k], rows[k], err = s.shorted(sh); err != nil {
			return nil, fmt.Errorf("fasthenry: short %d (%s=%s): %w", k, sh[0], sh[1], err)
		}
	}
	z := make([][]complex128, len(freqs))
	errs := make([]error, len(freqs))
	matrix.ParallelItems(s.workers, len(freqs), func(i int) {
		z[i], errs[i] = s.impedanceEachShortAt(freqs[i], sibs, rows)
	})
	if err := firstSweepError(freqs, errs); err != nil {
		return nil, err
	}
	return z, nil
}

// impedanceEachShortAt is ImpedanceEachShort at one frequency over the
// shorted siblings sibs and their node merges rows.
func (s *Solver) impedanceEachShortAt(f float64, sibs []*Solver, rows [][]int) ([]complex128, error) {
	z := make([]complex128, len(sibs))
	if s.iterativeMode() {
		for k, sib := range sibs {
			var err error
			if z[k], _, err = sib.impedanceIterative(f, nil, nil); err != nil {
				return nil, fmt.Errorf("%w (short %d)", err, k)
			}
		}
		return z, nil
	}
	y, err := s.admittance(f)
	if err != nil {
		return nil, err
	}
	for k, sib := range sibs {
		if z[k], err = sib.portSolve(mergeAdmittance(y, rows[k], sib.nNodes-1)); err != nil {
			return nil, fmt.Errorf("%w (short %d)", err, k)
		}
	}
	return z, nil
}

// shorted returns the solver of the same filaments with node pair sh
// merged, and the merge P as a map from s's reduced nodal rows to the
// new solver's (-1 where a node merged into the reference). The new
// solver shares the filaments, the kernel and (on the iterative paths)
// the compressed operator, and owns its node space, incidence and Schur
// plan. It only runs port solves: the dense path folds the short into
// s's admittance, so the new solver has no direction blocks. A short
// the mesh already implies returns s and a nil map.
func (s *Solver) shorted(sh [2]string) (*Solver, []int, error) {
	var ids [2]int
	for e, name := range sh {
		id, ok := s.mesh.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("node %q is on no conductor", name)
		}
		ids[e] = id
	}
	if ids[0] == ids[1] {
		return s, nil, nil
	}
	m := nodeMerge{from: ids[0], into: ids[1]}
	sib := &Solver{
		fils: s.fils, entry: s.entry,
		nNodes: s.nNodes - 1, plus: m.node(s.plus), minus: m.node(s.minus),
		mode: s.effectiveMode(),
	}
	if sib.plus == sib.minus {
		return nil, nil, fmt.Errorf("port terminals are shorted together")
	}
	sib.inc = make([][2]int, len(s.fils))
	for fi, f := range s.fils {
		na, nb := m.node(f.NodeA), m.node(f.NodeB)
		if na == nb && f.NodeA != f.NodeB && f.Seg >= 0 {
			return nil, nil, fmt.Errorf("segment %d shorted end-to-end", f.Seg)
		}
		sib.inc[fi] = [2]int{sib.nodeRow(na), sib.nodeRow(nb)}
	}
	rows := make([]int, s.nNodes-1)
	for r := range rows {
		n := r // the node whose reduced row is r
		if n >= s.minus {
			n++
		}
		rows[r] = sib.nodeRow(m.node(n))
	}
	if s.iterativeMode() {
		op := s.compressedOp()
		sib.opOnce.Do(func() { sib.op = op })
	}
	return sib, rows, nil
}

// mergeAdmittance folds the nodal admittance y onto an nn-node space:
// P y Pᵀ, each row and column adding into the row rows maps it to and
// dropping out where that is -1 (the reference). A nil rows is the
// identity.
func mergeAdmittance(y *matrix.CDense, rows []int, nn int) *matrix.CDense {
	if rows == nil {
		return y
	}
	ys := matrix.NewCDense(nn, nn)
	for i, ri := range rows {
		if ri < 0 {
			continue
		}
		for j, rj := range rows {
			if rj >= 0 {
				ys.Add(ri, rj, y.At(i, j))
			}
		}
	}
	return ys
}
