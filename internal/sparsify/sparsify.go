// Package sparsify implements the partial-inductance matrix
// sparsification and acceleration techniques surveyed in §4 of the
// paper: naive truncation (unstable), block-diagonal sparsification,
// the shell shift-truncate method of Krauter & Pileggi (ICCAD 1995),
// the halo / return-limited method of Shepard et al. (TCAD 2000) and
// the windowed K (inverse inductance) matrix of Devgan et al. (ICCAD
// 2000).
//
// Every method returns a Result carrying the sparsified matrix, the
// achieved density, and a passivity audit: a partial inductance matrix
// that loses positive definiteness describes a circuit that can generate
// energy, the paper's core argument for why truncation is not viable.
package sparsify

import (
	"fmt"
	"math"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// Result is a sparsified inductance matrix plus diagnostics.
type Result struct {
	// L is the sparsified matrix (same order as the input).
	L *matrix.Dense
	// KeptFraction is the fraction of off-diagonal entries retained.
	KeptFraction float64
	// PositiveDefinite records the passivity audit (Cholesky succeeds).
	PositiveDefinite bool
	// MinEigen is an estimate of the smallest eigenvalue when the
	// audit failed (how active the sparsified system is); zero when PD.
	MinEigen float64
}

func finish(l *matrix.Dense, kept, offDiag int) *Result {
	r := &Result{L: l}
	if offDiag > 0 {
		r.KeptFraction = float64(kept) / float64(offDiag)
	} else {
		r.KeptFraction = 1
	}
	r.PositiveDefinite = matrix.IsPositiveDefinite(l)
	if !r.PositiveDefinite {
		r.MinEigen = matrix.MinEigenEstimate(l, 1e-3)
	}
	return r
}

// Truncate drops every mutual with |L_ij| < threshold*sqrt(L_ii*L_jj).
// As the paper warns, the result can lose positive definiteness — the
// audit fields report whether it did.
func Truncate(l *matrix.Dense, threshold float64) *Result {
	n := l.Rows()
	out := l.Clone()
	kept, off := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			off++
			lim := threshold * math.Sqrt(l.At(i, i)*l.At(j, j))
			if math.Abs(out.At(i, j)) < lim {
				out.Set(i, j, 0)
			} else {
				kept++
			}
		}
	}
	return finish(out, kept, off)
}

// BlockDiagonal keeps mutuals only inside sections: section[i] gives the
// section id of row i. Because each retained block is a principal
// submatrix of the (positive definite) original, the result is always
// positive definite — the guarantee the paper relies on.
func BlockDiagonal(l *matrix.Dense, section []int) *Result {
	n := l.Rows()
	if len(section) != n {
		panic(fmt.Sprintf("sparsify: section list length %d, matrix %d", len(section), n))
	}
	out := l.Clone()
	kept, off := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			off++
			if section[i] != section[j] {
				out.Set(i, j, 0)
			} else if out.At(i, j) != 0 {
				kept++
			}
		}
	}
	return finish(out, kept, off)
}

// SectionsByCrossCoordinate partitions segments into nSections vertical
// slabs by their cross-axis coordinate — the paper's topology-based
// sectioning, with the signal bus of interest placed mid-section by
// choosing boundaries between grid lines.
func SectionsByCrossCoordinate(l *geom.Layout, segs []int, nSections int) []int {
	if nSections < 1 {
		nSections = 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, si := range segs {
		c := l.Segments[si].CrossCoord()
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	out := make([]int, len(segs))
	span := hi - lo
	if span <= 0 {
		return out
	}
	for i, si := range segs {
		c := l.Segments[si].CrossCoord()
		s := int(float64(nSections) * (c - lo) / span)
		if s >= nSections {
			s = nSections - 1
		}
		out[i] = s
	}
	return out
}

// Shell applies the shift-truncate method: each pairwise mutual is
// replaced by the mutual relative to a distributed return shell at
// radius r0 — L'_ij = L_ij - M(lengths, offset, r0) — and pairs beyond
// r0 are dropped entirely. Self terms shift the same way, so every
// retained value is a "loop inductance with return at r0", which decays
// to zero at the shell and keeps the matrix (numerically) passive.
func Shell(lay *geom.Layout, segs []int, lp *matrix.Dense, r0 float64) *Result {
	n := lp.Rows()
	if len(segs) != n {
		panic("sparsify: segs/matrix size mismatch")
	}
	out := matrix.NewDense(n, n)
	kept, off := 0, 0
	for i := 0; i < n; i++ {
		si := &lay.Segments[segs[i]]
		selfShift := extract.MutualFilaments(si.Length, si.Length, 0, r0)
		d := lp.At(i, i) - selfShift
		if d <= 0 {
			// Shell tighter than the conductor itself; keep a floor.
			d = lp.At(i, i) * 1e-6
		}
		out.Set(i, i, d)
		for j := i + 1; j < n; j++ {
			off += 2
			pg, ok := lay.Parallel(segs[i], segs[j])
			if !ok || pg.D >= r0 || lp.At(i, j) == 0 {
				continue
			}
			shift := extract.MutualFilaments(pg.La, pg.Lb, pg.S, r0)
			v := lp.At(i, j) - shift
			if v <= 0 {
				continue
			}
			out.Set(i, j, v)
			out.Set(j, i, v)
			kept += 2
		}
	}
	return finish(out, kept, off)
}

// HaloReturn classifies which nets act as current returns (power/ground)
// for the halo method.
type HaloReturn func(net string) bool

// Halo applies the return-limited rule of Shepard et al.: a signal
// segment's current is assumed to return within the halo bounded by the
// nearest same-direction power/ground lines on either side. Every
// inductance is re-expressed relative to a return at the segment's halo
// radius (the shift-truncate construction, applied with a per-segment,
// geometry-derived radius instead of a global shell): couplings beyond
// the halo vanish, retained couplings decay to zero at the halo edge,
// and the result stays passive like the shell method.
func Halo(lay *geom.Layout, segs []int, lp *matrix.Dense, isReturn HaloReturn) *Result {
	n := lp.Rows()
	if len(segs) != n {
		panic("sparsify: segs/matrix size mismatch")
	}
	radius := haloRadii(lay, segs, isReturn)
	out := matrix.NewDense(n, n)
	kept, off := 0, 0
	for i := 0; i < n; i++ {
		si := &lay.Segments[segs[i]]
		selfShift := extract.MutualFilaments(si.Length, si.Length, 0, radius[i])
		d := lp.At(i, i) - selfShift
		if d <= 0 {
			d = lp.At(i, i) * 1e-6
		}
		out.Set(i, i, d)
		for j := i + 1; j < n; j++ {
			off += 2
			if lp.At(i, j) == 0 {
				continue
			}
			pg, ok := lay.Parallel(segs[i], segs[j])
			if !ok {
				continue
			}
			// Symmetric pair radius: the tighter of the two halos.
			r := math.Min(radius[i], radius[j])
			if pg.D >= r {
				continue
			}
			v := lp.At(i, j) - extract.MutualFilaments(pg.La, pg.Lb, pg.S, r)
			if v <= 0 {
				continue
			}
			out.Set(i, j, v)
			out.Set(j, i, v)
			kept += 2
		}
	}
	return finish(out, kept, off)
}

// haloRadii computes each segment's halo radius: the distance to the
// farther of the nearest bounding same-direction return lines on either
// side (so the halo encloses both returns), falling back to the
// layout's cross extent when a side has none. The nearest-return search
// runs on the uniform-grid spatial index with an expanding cross-axis
// window — O(n·k) on regular grids — replacing the former all-pairs
// scan; the radii (and therefore the sparsified matrix) are identical,
// because a return found within the current window is provably the
// global nearest on its side.
func haloRadii(lay *geom.Layout, segs []int, isReturn HaloReturn) []float64 {
	n := len(segs)
	radius := make([]float64, n)
	var spanLo, spanHi float64 = math.Inf(1), math.Inf(-1)
	for _, si := range segs {
		c := lay.Segments[si].CrossCoord()
		spanLo = math.Min(spanLo, c)
		spanHi = math.Max(spanHi, c)
	}
	fallback := math.Max(spanHi-spanLo, 1e-9)
	idx := geom.NewIndex(lay, 0)
	inSet := make(map[int]bool, n)
	for _, si := range segs {
		inSet[si] = true
	}
	for i := 0; i < n; i++ {
		c := lay.Segments[segs[i]].CrossCoord()
		below, above := math.Inf(1), math.Inf(1)
		for w := fallback / 64; ; w *= 2 {
			below, above = math.Inf(1), math.Inf(1)
			for _, cj := range idx.ParallelCandidates(segs[i], w) {
				sj := &lay.Segments[cj]
				if !inSet[cj] || !isReturn(sj.Net) {
					continue
				}
				if lay.OverlapLength(segs[i], cj) <= 0 {
					continue
				}
				d := sj.CrossCoord() - c
				if d < 0 && -d < below {
					below = -d
				}
				if d > 0 && d < above {
					above = d
				}
			}
			// A side is settled once its nearest hit lies inside the
			// scanned window (nothing closer can be outside it). Stop
			// when both are, or the window covers the whole cross span.
			if (below <= w && above <= w) || w >= fallback {
				break
			}
		}
		var r float64
		switch {
		case !math.IsInf(below, 1) && !math.IsInf(above, 1):
			r = below + above
		case !math.IsInf(below, 1):
			r = 2 * below
		case !math.IsInf(above, 1):
			r = 2 * above
		default:
			r = fallback
		}
		if r <= 0 {
			r = fallback
		}
		radius[i] = r
	}
	return radius
}

// InvertToK returns the exact K = L^-1 matrix.
func InvertToK(l *matrix.Dense) (*matrix.Dense, error) {
	ch, err := matrix.FactorCholesky(l)
	if err != nil {
		return nil, fmt.Errorf("sparsify: L not SPD, cannot form K: %w", err)
	}
	k, err := ch.SolveMat(matrix.Identity(l.Rows()))
	if err != nil {
		return nil, err
	}
	return k.Symmetrize(), nil
}

// WindowedK builds a sparse approximation of K = L^-1 by the locality
// argument of Devgan et al.: for each row i, invert only the local
// window of the w strongest-coupled neighbours and keep row i of that
// small inverse. K inherits the capacitance-like locality that makes it
// (unlike L itself) safe to sparsify.
func WindowedK(l *matrix.Dense, window int) (*matrix.Dense, error) {
	n := l.Rows()
	if window < 1 {
		window = 1
	}
	if window > n {
		window = n
	}
	k := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		// Select the window-1 strongest neighbours of i plus i itself.
		idx := strongestNeighbors(l, i, window)
		sub := matrix.NewDense(len(idx), len(idx))
		pos := -1
		for a, ia := range idx {
			if ia == i {
				pos = a
			}
			for b, ib := range idx {
				sub.Set(a, b, l.At(ia, ib))
			}
		}
		ch, err := matrix.FactorCholesky(sub)
		if err != nil {
			return nil, fmt.Errorf("sparsify: window around %d not SPD: %w", i, err)
		}
		e := make([]float64, len(idx))
		e[pos] = 1
		row, err := ch.Solve(e)
		if err != nil {
			return nil, err
		}
		for a, ia := range idx {
			k.Set(i, ia, row[a])
		}
	}
	return k.Symmetrize(), nil
}

// strongestNeighbors returns i plus the (window-1) indices j maximizing
// |L_ij|, sorted ascending.
func strongestNeighbors(l *matrix.Dense, i, window int) []int {
	n := l.Rows()
	type cand struct {
		j int
		v float64
	}
	cands := make([]cand, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			cands = append(cands, cand{j, math.Abs(l.At(i, j))})
		}
	}
	// Partial selection sort: window is small.
	for a := 0; a < window-1 && a < len(cands); a++ {
		best := a
		for b := a + 1; b < len(cands); b++ {
			if cands[b].v > cands[best].v {
				best = b
			}
		}
		cands[a], cands[best] = cands[best], cands[a]
	}
	idx := []int{i}
	for a := 0; a < window-1 && a < len(cands); a++ {
		idx = append(idx, cands[a].j)
	}
	// Ascending order for deterministic submatrices.
	for a := 1; a < len(idx); a++ {
		for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	return idx
}
