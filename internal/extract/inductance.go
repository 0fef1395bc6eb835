// Package extract computes the partial circuit elements of the PEEC
// model from layout geometry: segment resistance, partial self and
// mutual inductance, and ground/coupling capacitance.
//
// Partial inductances follow Ruehli's PEEC formulation (IBM JRD 1972):
// each conductor segment gets a partial self inductance, and every pair
// of parallel segments a partial mutual inductance, evaluated with the
// closed-form Neumann integral for parallel filaments combined with the
// geometric-mean-distance (GMD) treatment of rectangular cross-sections
// (Grover 1946; Hoer & Love 1965). Skin effect is not included here —
// as the paper notes, very wide conductors must be split into narrower
// lines first (see internal/fasthenry for the frequency-dependent
// filament solver).
package extract

import (
	"math"
	"sort"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
	"inductance101/internal/units"
)

// SelfGMDFactor is the classical approximation for the geometric mean
// distance of a rectangular cross-section from itself:
// R_self ≈ 0.2235 (w + t). Exact for squares to ~0.1%, good to ~2% for
// aspect ratios up to ~10 (Grover, "Inductance Calculations", ch. 3).
const SelfGMDFactor = 0.2235

// filamentK is the second antiderivative of 1/sqrt(u^2+d^2):
// K(u) = u asinh(u/d) - sqrt(u^2 + d^2), an even function of u.
func filamentK(u, d float64) float64 {
	if d == 0 {
		// The ln(d) terms cancel in the four-term combination because
		// the signed u coefficients sum to zero; use the d->0 limit.
		if u == 0 {
			return 0
		}
		au := math.Abs(u)
		return au*math.Log(2*au) - au
	}
	return u*math.Asinh(u/d) - math.Hypot(u, d)
}

// MutualFilaments returns the mutual inductance (H) of two parallel
// filaments: filament a of length la starting at axis coordinate 0,
// filament b of length lb starting at axis coordinate s, separated by
// perpendicular distance d > 0 (or d == 0 for collinear non-overlapping
// filaments).
//
// M = (mu0 / 4 pi) [ K(s+lb) + K(s-la) - K(s) - K(s+lb-la) ].
func MutualFilaments(la, lb, s, d float64) float64 {
	if la <= 0 || lb <= 0 {
		return 0
	}
	k := filamentK(s+lb, d) + filamentK(s-la, d) - filamentK(s, d) - filamentK(s+lb-la, d)
	return units.Mu0 / (4 * math.Pi) * k
}

// SelfInductanceBar returns the partial self inductance (H) of a
// rectangular bar of length l, width w and thickness t, using the GMD of
// the cross-section from itself as the effective filament spacing.
func SelfInductanceBar(l, w, t float64) float64 {
	if l <= 0 {
		return 0
	}
	g := SelfGMDFactor * (w + t)
	if g <= 0 {
		g = 1e-12 // degenerate cross-section: fall back to a hair filament
	}
	return MutualFilaments(l, l, 0, g)
}

// RuehliSelfInductance is the log-form approximation
// L = (mu0 l / 2 pi) [ ln(2l/(w+t)) + 1/2 + 0.2235 (w+t)/l ]
// used as an independent cross-check in tests (valid for l >> w+t).
func RuehliSelfInductance(l, w, t float64) float64 {
	if l <= 0 || w+t <= 0 {
		return 0
	}
	return units.Mu0 * l / (2 * math.Pi) *
		(math.Log(2*l/(w+t)) + 0.5 + SelfGMDFactor*(w+t)/l)
}

// GMDOptions controls mutual-inductance cross-section handling.
type GMDOptions struct {
	// Numeric enables 4-D Gauss–Legendre evaluation of the exact
	// cross-section GMD when two bars are closer than NumericRatio
	// times the sum of their half-widths. Beyond that range the
	// centre-to-centre distance is an excellent GMD approximation.
	Numeric      bool
	NumericRatio float64 // default 3
	Order        int     // quadrature points per dimension, default 6
}

// gauss points/weights on [-1, 1] for orders 2..8 would be overkill;
// order 6 covers the accuracy needed (GMD integrand is smooth).
var gauss6X = []float64{
	-0.9324695142031521, -0.6612093864662645, -0.2386191860831969,
	0.2386191860831969, 0.6612093864662645, 0.9324695142031521,
}
var gauss6W = []float64{
	0.1713244923791704, 0.3607615730481386, 0.4679139345726910,
	0.4679139345726910, 0.3607615730481386, 0.1713244923791704,
}

// NumericGMD computes the geometric mean distance between two
// rectangular cross-sections: exp of the area-averaged ln distance.
// Rectangle a spans [ax0,ax0+aw] x [az0,az0+at] in the cross-section
// plane; rectangle b likewise.
//
// Valid only for DISJOINT rectangles: for overlapping or identical
// cross-sections the ln r singularity defeats fixed-order quadrature
// (use SelfGMDFactor for the self case). Touching rectangles are fine —
// the singular set has measure zero and Gauss nodes stay interior.
func NumericGMD(ax0, aw, az0, at, bx0, bw, bz0, bt float64) float64 {
	sum := 0.0
	for i, xi := range gauss6X {
		xa := ax0 + aw*(xi+1)/2
		for j, zj := range gauss6X {
			za := az0 + at*(zj+1)/2
			for k, xk := range gauss6X {
				xb := bx0 + bw*(xk+1)/2
				for m, zm := range gauss6X {
					zb := bz0 + bt*(zm+1)/2
					r := math.Hypot(xa-xb, za-zb)
					if r < 1e-18 {
						r = 1e-18
					}
					sum += gauss6W[i] * gauss6W[j] * gauss6W[k] * gauss6W[m] * math.Log(r)
				}
			}
		}
	}
	// Each Gauss sum over [-1,1] carries weight total 2; normalize by 2^4.
	return math.Exp(sum / 16)
}

// MutualBars returns the partial mutual inductance (H) between two
// parallel rectangular bars given their ParallelGeometry and widths/
// thicknesses, using the filament formula at the cross-section GMD.
func MutualBars(pg geom.ParallelGeometry, wa, ta, wb, tb float64, opt GMDOptions) float64 {
	if pg.La <= 0 || pg.Lb <= 0 {
		return 0
	}
	d := pg.D
	if opt.Numeric {
		ratio := opt.NumericRatio
		if ratio <= 0 {
			ratio = 3
		}
		if d < ratio*(wa+wb)/2 {
			// Cross-sections in the (cross-axis, z) plane. Place a at
			// origin, b at (D, 0): we only know the scalar distance, so
			// model the offset entirely along the cross axis — exact for
			// same-layer neighbours, a good proxy across layers.
			d = NumericGMD(-wa/2, wa, -ta/2, ta, pg.D-wb/2, wb, -tb/2, tb)
		}
	}
	if d <= 0 {
		// Overlapping centre lines (e.g. stacked segments): use the
		// mean self-GMD as a regularized spacing.
		d = SelfGMDFactor * (wa + ta + wb + tb) / 2
	}
	return MutualFilaments(pg.La, pg.Lb, pg.S, d)
}

// InductanceMatrix assembles the partial inductance matrix for the given
// segments of a layout. window limits mutual computation to segment
// pairs whose perpendicular distance is below window (use +Inf for the
// full dense PEEC matrix). The result is symmetric with positive
// diagonal.
//
// Every kernel is evaluated directly: a lookup in a geometry-keyed memo
// table cost more than the closed forms it would replace. With a finite
// window the candidate pairs come from a uniform-grid spatial index
// instead of the all-pairs scan, making windowed assembly O(n·k) in the
// neighbour count k.
func InductanceMatrix(l *geom.Layout, segs []int, window float64, opt GMDOptions) *matrix.Dense {
	n := len(segs)
	m := matrix.NewDense(n, n)
	pairs := pairCandidates(l, segs, window)
	for i := 0; i < n; i++ {
		fillInductanceRow(l, segs, window, opt, m, i, pairs)
	}
	return m
}

// pairCandidates returns, for each position i in segs, the sorted
// positions j > i whose segments might lie within the perpendicular
// window (a bounding-box superset from the spatial index; callers
// re-check with Parallel and the exact D test). A nil return means "all
// j > i" — used when the window is unbounded, where an index prunes
// nothing.
func pairCandidates(l *geom.Layout, segs []int, window float64) [][]int {
	if math.IsInf(window, 1) || len(segs) < 2 {
		return nil
	}
	idx := geom.NewIndex(l, 0)
	pos := make(map[int]int, len(segs))
	for i, si := range segs {
		pos[si] = i
	}
	pairs := make([][]int, len(segs))
	for i, si := range segs {
		var row []int
		for _, c := range idx.ParallelCandidates(si, window) {
			if j, ok := pos[c]; ok && j > i {
				row = append(row, j)
			}
		}
		sort.Ints(row)
		pairs[i] = row
	}
	return pairs
}

// fillInductanceRow computes the diagonal entry and the mutuals of row
// i, visiting either the indexed candidate list or every j > i.
func fillInductanceRow(l *geom.Layout, segs []int, window float64, opt GMDOptions, m *matrix.Dense, i int, pairs [][]int) {
	n := len(segs)
	si := &l.Segments[segs[i]]
	t := l.Layers[si.Layer].Thickness
	m.Set(i, i, SelfInductanceBar(si.Length, si.Width, t))
	visit := func(j int) {
		sj := &l.Segments[segs[j]]
		pg, ok := l.Parallel(segs[i], segs[j])
		if !ok || pg.D > window {
			return
		}
		tj := l.Layers[sj.Layer].Thickness
		v := MutualBars(pg, si.Width, t, sj.Width, tj, opt)
		m.Set(i, j, v)
		m.Set(j, i, v)
	}
	if pairs != nil {
		for _, j := range pairs[i] {
			visit(j)
		}
		return
	}
	for j := i + 1; j < n; j++ {
		visit(j)
	}
}

// LoopInductanceTwoWire returns the loop inductance of a signal/return
// pair of equal length l: L_loop = L11 + L22 - 2 M12. Used by tests and
// by the closed-form design guidelines in internal/design.
func LoopInductanceTwoWire(l11, l22, m12 float64) float64 {
	return l11 + l22 - 2*m12
}
