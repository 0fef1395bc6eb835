package extract

import (
	"math"
	"sort"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// Options controls a full-layout extraction.
type Options struct {
	// MutualWindow is the maximum perpendicular distance at which
	// partial mutual inductances are computed. +Inf (the default when
	// zero is passed to Extract via DefaultOptions) gives the paper's
	// full dense PEEC matrix; finite values are a pre-sparsification
	// used only to bound extraction cost on huge layouts.
	MutualWindow float64
	// CouplingWindow is the maximum edge-to-edge spacing at which
	// line-to-line coupling capacitance is extracted ("all pairs of
	// adjacent lines" in the paper).
	CouplingWindow float64
	// GMD selects numeric cross-section GMD for close conductors.
	GMD GMDOptions
	// Workers parallelizes the inductance-matrix assembly across CPUs
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// SkipInductance leaves Parasitics.L nil. Used by callers that
	// represent the partial-inductance coupling some other way (e.g.
	// the hierarchically compressed operator from CompressInductance)
	// and must not pay the dense n x n assembly.
	SkipInductance bool
}

// DefaultOptions extracts the full dense mutual matrix and couples lines
// within 5x of typical spacing.
func DefaultOptions() Options {
	return Options{
		MutualWindow:   math.Inf(1),
		CouplingWindow: 3e-6,
	}
}

// CapPair is a coupling capacitor between two circuit nodes.
type CapPair struct {
	NodeA, NodeB string
	C            float64
}

// Parasitics is the result of extracting a layout: the inputs to the
// PEEC circuit model of §3 of the paper.
type Parasitics struct {
	// Segs maps matrix/array position to layout segment index.
	Segs []int
	// R[i] is the series resistance of segment Segs[i].
	R []float64
	// L is the (symmetric, dense) partial inductance matrix over Segs.
	L *matrix.Dense
	// CGround[node] is the lumped capacitance to the substrate/ground
	// reference at each node, from the RLC-π split (half the segment's
	// ground capacitance at each end).
	CGround map[string]float64
	// CCoupling lists node-to-node coupling capacitors.
	CCoupling []CapPair
}

// Extract computes the PEEC parasitics of all segments in the layout.
func Extract(l *geom.Layout, opt Options) *Parasitics {
	segs := make([]int, len(l.Segments))
	for i := range segs {
		segs[i] = i
	}
	return ExtractSegments(l, segs, opt)
}

// ExtractSegments computes PEEC parasitics restricted to the given
// segment indices (e.g. a single net plus its neighbourhood).
func ExtractSegments(l *geom.Layout, segs []int, opt Options) *Parasitics {
	if opt.MutualWindow == 0 {
		opt.MutualWindow = math.Inf(1)
	}
	if opt.CouplingWindow == 0 {
		opt.CouplingWindow = 3e-6
	}
	p := &Parasitics{
		Segs:    append([]int(nil), segs...),
		R:       make([]float64, len(segs)),
		CGround: make(map[string]float64),
	}
	for i, si := range segs {
		p.R[i] = Resistance(l, si)
		cg := GroundCap(l, si)
		s := &l.Segments[si]
		p.CGround[s.NodeA] += cg / 2
		p.CGround[s.NodeB] += cg / 2
	}
	if !opt.SkipInductance {
		p.L = InductanceMatrixParallel(l, segs, opt.MutualWindow, opt.GMD, opt.Workers)
	}

	// Coupling capacitance between adjacent same-layer parallel lines.
	// Use a spatial index to keep this near-linear; window by spacing.
	idx := geom.NewIndex(l, 0)
	inSet := make(map[int]int, len(segs))
	for i, si := range segs {
		inSet[si] = i
	}
	seen := make(map[[2]int]bool)
	for _, si := range segs {
		for _, sj := range idx.Neighbors(si, opt.CouplingWindow) {
			if _, ok := inSet[sj]; !ok {
				continue
			}
			a, b := si, sj
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if seen[key] {
				continue
			}
			seen[key] = true
			if l.EdgeSpacing(a, b) > opt.CouplingWindow {
				continue
			}
			cv := CouplingCap(l, a, b)
			if cv <= 0 {
				continue
			}
			// Split the coupling capacitor across the two end-node
			// pairs, pairing ends by axis position so the halves land
			// between geometrically adjacent nodes.
			sa, sb := &l.Segments[a], &l.Segments[b]
			aLoNode, aHiNode := orderedNodes(sa)
			bLoNode, bHiNode := orderedNodes(sb)
			p.CCoupling = append(p.CCoupling,
				CapPair{NodeA: aLoNode, NodeB: bLoNode, C: cv / 2},
				CapPair{NodeA: aHiNode, NodeB: bHiNode, C: cv / 2},
			)
		}
	}
	sort.Slice(p.CCoupling, func(i, j int) bool {
		if p.CCoupling[i].NodeA != p.CCoupling[j].NodeA {
			return p.CCoupling[i].NodeA < p.CCoupling[j].NodeA
		}
		return p.CCoupling[i].NodeB < p.CCoupling[j].NodeB
	})
	return p
}

// orderedNodes returns (node at low axis coordinate, node at high axis
// coordinate). NodeA is at (X0, Y0), which for positive Length is always
// the low end.
func orderedNodes(s *geom.Segment) (lo, hi string) {
	return s.NodeA, s.NodeB
}

// Stats summarizes an extraction, matching the element-count rows of
// the paper's Table 1.
type Stats struct {
	NumR       int
	NumCGround int
	NumCCouple int
	NumL       int
	NumMutual  int // strictly off-diagonal nonzeros / 2
}

// Stats counts the extracted elements. With SkipInductance the mutual
// count is zero — the caller owns the inductance representation.
func (p *Parasitics) Stats() Stats {
	st := Stats{
		NumR:       len(p.R),
		NumCGround: len(p.CGround),
		NumCCouple: len(p.CCoupling),
		NumL:       len(p.Segs),
	}
	if p.L == nil {
		return st
	}
	n := p.L.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.L.At(i, j) != 0 {
				st.NumMutual++
			}
		}
	}
	return st
}
