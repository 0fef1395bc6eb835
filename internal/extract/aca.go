package extract

import (
	"fmt"
	"math"
	"strings"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// Hierarchically compressed partial-inductance operator.
//
// A dense partial-inductance matrix over n coupled elements costs O(n²)
// memory and O(n²) kernel evaluations, and any solve through it at
// least O(n²) per matvec — the wall the paper's §4 points at when it
// recommends hierarchical models over raw partial-inductance matrices.
// The structure that saves us is smoothness: the mutual-inductance
// kernel between well-separated parallel conductors varies slowly with
// their relative placement, so the interaction block between two
// distant clusters is numerically low-rank. This file implements the
// flat hierarchical-matrix recipe over a geometric cluster tree
// (geom.ClusterItems, or mesh.ClusterFilaments over filaments):
//
//   - near blocks (clusters that touch or overlap) are stored dense,
//     exact to the last bit;
//   - far blocks (clusters whose cross-plane separation — or gap along
//     the shared routing axis — exceeds η times their extents) are
//     compressed with adaptive cross approximation (ACA) into rank-k
//     factors U Vᵀ, sampling only O(k(m+n)) kernel entries;
//   - symmetry is preserved by construction: each off-diagonal block is
//     stored once and applied both ways with the same factors, so
//     ⟨e_i, L e_j⟩ and ⟨e_j, L e_i⟩ are bit-identical.
//
// A matvec then costs the sum of the near-block areas plus Σ k(m+n)
// over far blocks — near-linear in n on regular layouts — which is what
// makes matrix-free GMRES extraction (internal/fasthenry) scale. Each
// far block's factors still grow with the block's side length, though,
// so both storage and build flatten at ~10⁴ elements; h2.go upgrades
// the same partition to nested bases for the 10⁵ regime.
//
// Construction shares everything before the far field with h2.go
// (partition.go): the serial partition walk lists the diagonal, near
// and admissible blocks without evaluating a kernel entry, and the
// dense blocks are filled once the far field is settled. What is flat
// ACA's own is the far field: workers factor the admissible pairs
// concurrently, and a pair whose ACA hits the break-even rank goes back
// through the partition's split between waves. Every block's content
// depends only on its own index lists, and blocks are stored in
// partition order, so the operator is bit-identical at any worker
// count.

// LOperator is the read interface shared by the compressed
// partial-inductance operators (the flat-ACA CompressedL and the
// nested-basis H2L): everything internal/fasthenry and the CLIs need
// to solve through, precondition, and inspect a compressed L without
// knowing its representation. Implementations are immutable after
// construction and safe for concurrent use.
type LOperator interface {
	// Dim returns the operator dimension.
	Dim() int
	// Stats returns the compression summary.
	Stats() CompressStats
	// Diag returns the exact diagonal entry L[i][i].
	Diag(i int) float64
	// DiagBlocks returns the dense diagonal leaf blocks — the basis of
	// the block-Jacobi preconditioner.
	DiagBlocks() []DiagBlock
	// ApplyTo computes dst = L*x over real vectors (no aliasing).
	ApplyTo(dst, x []float64)
	// ApplyCTo computes dst = L*x over complex vectors (no aliasing).
	ApplyCTo(dst, x []complex128)
	// EachUpper visits every strictly-upper-triangle entry once.
	EachUpper(fn func(i, j int, v float64))
}

// HElement describes one current-carrying element (a conductor bar or a
// skin-effect filament) for the compressed operator: its routing
// direction, span along that axis, centre-line coordinates in the
// perpendicular plane, and a radius bounding its cross-section.
type HElement struct {
	Dir      int     // 0 = x-directed, 1 = y-directed (matches geom.Direction)
	A0, A1   float64 // span along the routing axis (m)
	Cross, Z float64 // centre-line cross coordinate and height (m)
	Rad      float64 // cross-section bounding radius (m)
}

// ACAOptions controls the flat hierarchical compression.
type ACAOptions struct {
	// Tol is the relative Frobenius-norm tolerance of each low-rank
	// block: ACA stops adding rank-one terms once the latest term's
	// norm falls below Tol times the accumulated block norm. Default
	// 1e-8. Smaller is tighter and more expensive; the operator's
	// overall matvec error is of the same order as Tol.
	Tol float64
	// Workers caps the goroutines filling blocks during construction.
	// 0 = process default (matrix.Workers), 1 = fully serial. The
	// operator is bit-identical at every worker count.
	Workers int
}

func (o ACAOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

// denseBlock is an exactly stored interaction block. For diagonal
// blocks rows and cols are the same slice.
type denseBlock struct {
	rows, cols []int
	r0, c0     int       // tree-order starts of rows and cols
	v          []float64 // len(rows) x len(cols), row-major
}

// lowRankBlock approximates an interaction block as U Vᵀ with k
// rank-one terms: u is k x len(rows), v is k x len(cols), row-major by
// term.
type lowRankBlock struct {
	rows, cols []int
	r0, c0     int // tree-order starts of rows and cols
	u, v       []float64
	k          int
	level      int // cluster-tree depth the block was created at
}

// LevelStats is one cluster-tree depth's compression summary: how many
// low-rank blocks (ACA factors or nested-basis couplings) live there
// and the spread of their ranks, plus — on the nested-basis path — the
// interpolation bases anchored at that depth. The per-level rank
// histogram is how compression quality vs depth is inspected without a
// debugger (rlsweep -v / inductx -v print it).
type LevelStats struct {
	Level     int // depth below the root (0 = coarsest)
	FarBlocks int // low-rank blocks anchored at this depth
	MinRank   int
	MaxRank   int
	AvgRank   float64
	// Bases and BasisMaxRank describe the nested-basis cluster bases at
	// this depth (zero on the flat-ACA path).
	Bases        int
	BasisMaxRank int
}

// CompressStats summarizes a compressed operator.
type CompressStats struct {
	N                  int // elements
	DiagBlocks         int // dense diagonal leaf blocks
	NearBlocks         int // dense off-diagonal blocks
	FarBlocks          int // low-rank far blocks (ACA factors or couplings)
	MaxRank            int
	AvgRank            float64
	StoredFloats       int // floats held by all blocks (and bases)
	DenseFloats        int // n*n a dense matrix would hold
	KernelEvals        int // kernel entries sampled during construction
	NearKernelEvals    int // exact evaluations into diagonal + near blocks
	FarKernelEvals     int // sampled evaluations into low-rank factors/bases
	DenseKernelEntries int // n*(n+1)/2 a dense assembly would evaluate
	Levels             []LevelStats
	Nested             bool // true for the nested-basis (H²) operator
}

// CompressionRatio returns dense storage over compressed storage.
func (s CompressStats) CompressionRatio() float64 {
	if s.StoredFloats == 0 {
		return 0
	}
	return float64(s.DenseFloats) / float64(s.StoredFloats)
}

// String formats the summary as the CLIs' -v report, one line each:
// the operator's blocks and compression, its kernel evaluations, then
// every cluster-tree level's ranks.
func (s CompressStats) String() string {
	kind := "flat ACA"
	if s.Nested {
		kind = "nested-basis"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s operator: %d dense + %d low-rank blocks, max rank %d, %.1fx storage compression\n",
		kind, s.DiagBlocks+s.NearBlocks, s.FarBlocks, s.MaxRank, s.CompressionRatio())
	fmt.Fprintf(&b, "kernel evaluations: %d near + %d far of %d dense entries",
		s.NearKernelEvals, s.FarKernelEvals, s.DenseKernelEntries)
	for _, lv := range s.Levels {
		if s.Nested {
			fmt.Fprintf(&b, "\nlevel %2d: %d bases (max rank %d), %d couplings, rank min/avg/max %d/%.1f/%d",
				lv.Level, lv.Bases, lv.BasisMaxRank, lv.FarBlocks, lv.MinRank, lv.AvgRank, lv.MaxRank)
		} else {
			fmt.Fprintf(&b, "\nlevel %2d: %d low-rank blocks, rank min/avg/max %d/%.1f/%d",
				lv.Level, lv.FarBlocks, lv.MinRank, lv.AvgRank, lv.MaxRank)
		}
	}
	return b.String()
}

// CompressedL is a symmetric partial-inductance operator stored as
// flat hierarchical blocks. It is immutable after construction and safe
// for concurrent ApplyTo/ApplyCTo/Diag/EachUpper calls — a frequency
// sweep shares one operator across all worker goroutines.
type CompressedL struct {
	nearField
	far   []lowRankBlock
	stats CompressStats
	maxK  int
}

var _ LOperator = (*CompressedL)(nil)

// Stats returns the compression summary.
func (c *CompressedL) Stats() CompressStats { return c.stats }

// DiagBlock holds one diagonal leaf cluster: the element indices and
// the exact dense block over them (len(Idx)² row-major). The returned
// slices are views into the operator — callers must not modify them.
type DiagBlock struct {
	Idx []int
	V   []float64
}

// ApplyTo computes dst = L*x over real vectors of length Dim.
func (c *CompressedL) ApplyTo(dst, x []float64) { c.applyR(dst, x, c) }

// ApplyCTo computes dst = L*x over complex vectors of length Dim (the
// factors are real; the FastHenry branch-impedance operator applies
// jωL to complex currents).
func (c *CompressedL) ApplyCTo(dst, x []complex128) { c.applyC(dst, x, c) }

// applyFar applies every low-rank block both ways on the planes:
// dst[rows] += U (Vᵀ x[cols]), then dst[cols] += V (Uᵀ x[rows]), with
// the rank coefficients in w.cx[0].
func (c *CompressedL) applyFar(w *workspace, np int) {
	for bi := range c.far {
		b := &c.far[bi]
		r0, r1 := b.r0, b.r0+len(b.rows)
		c0, c1 := b.c0, b.c0+len(b.cols)
		t := w.cx[0][:b.k]
		for p := 0; p < np; p++ {
			x, y := w.x[p], w.y[p]
			clear(t)
			rowSums(b.v, x[c0:c1], t)
			colAxpys(b.u, t, y[r0:r1])
			clear(t)
			rowSums(b.u, x[r0:r1], t)
			colAxpys(b.v, t, y[c0:c1])
		}
	}
}

// EachUpper visits every strictly-upper-triangle entry (i < j, value
// possibly an ACA approximation on far blocks) exactly once, in block
// order. Cross-direction pairs, which are identically zero, are not
// visited.
func (c *CompressedL) EachUpper(fn func(i, j int, v float64)) {
	eachUpperDense(c.diag, c.near, fn)
	emit := func(i, j int, v float64) {
		if i < j {
			fn(i, j, v)
		} else {
			fn(j, i, v)
		}
	}
	for bi := range c.far {
		b := &c.far[bi]
		m, n := len(b.rows), len(b.cols)
		for a, i := range b.rows {
			for j, cj := range b.cols {
				s := 0.0
				for k := 0; k < b.k; k++ {
					s += b.u[k*m+a] * b.v[k*n+j]
				}
				emit(i, cj, s)
			}
		}
	}
}

// eachUpperDense walks the diagonal and near dense blocks shared by
// both operator representations.
func eachUpperDense(diag, near []denseBlock, fn func(i, j int, v float64)) {
	emit := func(i, j int, v float64) {
		if i < j {
			fn(i, j, v)
		} else {
			fn(j, i, v)
		}
	}
	for bi := range diag {
		b := &diag[bi]
		nc := len(b.cols)
		for a := range b.rows {
			for bidx := a + 1; bidx < nc; bidx++ {
				emit(b.rows[a], b.cols[bidx], b.v[a*nc+bidx])
			}
		}
	}
	for bi := range near {
		b := &near[bi]
		nc := len(b.cols)
		for a, i := range b.rows {
			for bidx, j := range b.cols {
				emit(i, j, b.v[a*nc+bidx])
			}
		}
	}
}

// CompressL builds the flat hierarchically compressed operator over
// elems from the given per-direction cluster trees over element
// positions. entry(i, j) must return the symmetric interaction L[i][j]
// and be safe to call with i == j; it is evaluated with i <= j only,
// and it must be safe for concurrent calls (the build fans out over
// ACAOptions.Workers). Trees must partition [0, len(elems)) and each
// tree must hold elements of a single direction. Far pairs are
// factored in parallel waves: a pair whose ACA fails is split, and its
// replacement blocks are factored in the next wave (or stored dense at
// the leaves).
func CompressL(elems []HElement, trees []*geom.ClusterNode, entry func(i, j int) float64, opt ACAOptions) *CompressedL {
	entry = symmetric(entry)
	p := newPartition(elems, trees)
	op := &CompressedL{nearField: nearField{n: len(elems)}}
	type acaResult struct {
		u, v      []float64
		k, evals  int
		converged bool
	}
	farEvals := 0
	for len(p.far) > 0 {
		cands := p.far
		p.far = nil
		results := make([]acaResult, len(cands))
		matrix.ParallelItems(opt.Workers, len(cands), func(i int) {
			r := &results[i]
			r.u, r.v, r.k, r.evals, r.converged = aca(entry, cands[i][0].Segs, cands[i][1].Segs, opt.tol())
		})
		for i, r := range results {
			farEvals += r.evals
			a, b := cands[i][0], cands[i][1]
			if !r.converged {
				p.split(a, b)
				continue
			}
			op.far = append(op.far, lowRankBlock{
				rows: a.Segs, cols: b.Segs,
				u: r.u, v: r.v, k: r.k, level: max(a.Level, b.Level),
			})
			op.maxK = max(op.maxK, r.k)
		}
	}
	op.fillDense(p, entry, opt.Workers)
	pos := op.indexTreeOrder(trees, op.maxK)
	op.stats = op.nearStats(farEvals)
	for bi := range op.far {
		b := &op.far[bi]
		b.r0, b.c0 = treeSpan(pos, b.rows), treeSpan(pos, b.cols)
		op.stats.addFar(b.level, b.k, len(b.u)+len(b.v))
	}
	op.stats.finish()
	return op
}

// aca runs partially pivoted adaptive cross approximation on the block
// entry(rows[a], cols[b]), sampling whole residual rows and columns
// until the newest rank-one term's norm drops below tol times the
// accumulated approximation norm. It gives up (ok false) at the
// break-even rank m·n/(2(m+n)), beyond which the factors would cost
// more than the dense block. evals counts the entries it sampled.
func aca(entry func(i, j int) float64, rows, cols []int, tol float64) (u, v []float64, rank, evals int, ok bool) {
	m, n := len(rows), len(cols)
	maxRank := m * n / (2 * (m + n))
	if maxRank < 1 {
		// Blocks too small to ever profit from factors.
		return nil, nil, 0, 0, false
	}
	usedRow := make([]bool, m)
	usedCol := make([]bool, n)
	fro2 := 0.0
	i := 0
	rowsLeft := m
	for rank < maxRank {
		// Residual row i.
		r := make([]float64, n)
		evals += n
		for j := 0; j < n; j++ {
			e := entry(rows[i], cols[j])
			for k := 0; k < rank; k++ {
				e -= u[k*m+i] * v[k*n+j]
			}
			r[j] = e
		}
		usedRow[i] = true
		rowsLeft--
		// Pivot column: largest residual among unused columns.
		jp, amax := -1, 0.0
		for j := 0; j < n; j++ {
			if usedCol[j] {
				continue
			}
			if a := math.Abs(r[j]); a > amax {
				jp, amax = j, a
			}
		}
		if jp < 0 || amax == 0 {
			// Row already fully represented: move to the next one, or
			// stop if the whole block is captured.
			if rowsLeft == 0 {
				return u, v, rank, evals, true
			}
			for a := 0; a < m; a++ {
				if !usedRow[a] {
					i = a
					break
				}
			}
			continue
		}
		piv := r[jp]
		for j := range r {
			r[j] /= piv
		}
		// Residual column jp.
		cv := make([]float64, m)
		evals += m
		for a := 0; a < m; a++ {
			e := entry(rows[a], cols[jp])
			for k := 0; k < rank; k++ {
				e -= u[k*m+a] * v[k*n+jp]
			}
			cv[a] = e
		}
		usedCol[jp] = true
		// Accumulate the new term and the running Frobenius norm:
		// ||A_k||² = ||A_{k-1}||² + 2 Σ (u_k·u_t)(v_k·v_t) + ||u_k||²||v_k||².
		nu2, nv2 := 0.0, 0.0
		for _, x := range cv {
			nu2 += x * x
		}
		for _, x := range r {
			nv2 += x * x
		}
		for k := 0; k < rank; k++ {
			du, dv := 0.0, 0.0
			for a := 0; a < m; a++ {
				du += u[k*m+a] * cv[a]
			}
			for j := 0; j < n; j++ {
				dv += v[k*n+j] * r[j]
			}
			fro2 += 2 * du * dv
		}
		fro2 += nu2 * nv2
		u = append(u, cv...)
		v = append(v, r...)
		rank++
		if math.Sqrt(nu2*nv2) <= tol*math.Sqrt(math.Max(fro2, 0)) || rowsLeft == 0 {
			return u, v, rank, evals, true
		}
		// Next pivot row: largest entry of the new column among unused
		// rows.
		ip, rmax := -1, -1.0
		for a := 0; a < m; a++ {
			if usedRow[a] {
				continue
			}
			if x := math.Abs(cv[a]); x > rmax {
				ip, rmax = a, x
			}
		}
		i = ip
	}
	return nil, nil, 0, evals, false
}

// CompressInductance builds the compressed partial-inductance operator
// over the given layout segments (one element per segment), with the
// same self/mutual kernels as InductanceMatrix with an unlimited
// window. Position k of the operator corresponds to segs[k].
func CompressInductance(l *geom.Layout, segs []int, gmd GMDOptions, opt ACAOptions) *CompressedL {
	elems, trees, entry := segmentOperatorInputs(l, segs, gmd, opt.Workers)
	return CompressL(elems, trees, entry, opt)
}

// segmentOperatorInputs prepares the shared inputs of the segment-level
// compressed operators: one HElement per segment, per-direction cluster
// trees over the element positions, and the self/mutual kernel closure.
// The trees bisect on each segment's axis centre, cross coordinate and
// height, ties broken by position.
func segmentOperatorInputs(l *geom.Layout, segs []int, gmd GMDOptions, workers int) ([]HElement, []*geom.ClusterNode, func(i, j int) float64) {
	elems := make([]HElement, len(segs))
	for k, si := range segs {
		s := &l.Segments[si]
		t := l.Layers[s.Layer].Thickness
		lo, hi := s.AxisSpan()
		elems[k] = HElement{
			Dir: int(s.Dir), A0: lo, A1: hi,
			Cross: s.CrossCoord(), Z: l.Z(si),
			Rad: math.Hypot(s.Width, t) / 2,
		}
	}
	entry := func(i, j int) float64 {
		si, sj := segs[i], segs[j]
		a := &l.Segments[si]
		ta := l.Layers[a.Layer].Thickness
		if i == j {
			return SelfInductanceBar(a.Length, a.Width, ta)
		}
		b := &l.Segments[sj]
		pg, okPar := l.Parallel(si, sj)
		if !okPar {
			return 0
		}
		tb := l.Layers[b.Layer].Thickness
		return MutualBars(pg, a.Width, ta, b.Width, tb, gmd)
	}
	dir := func(k int) geom.Direction { return geom.Direction(elems[k].Dir) }
	coord := func(dim, k int) float64 {
		e := &elems[k]
		switch dim {
		case 0:
			return (e.A0 + e.A1) / 2
		case 1:
			return e.Cross
		default:
			return e.Z
		}
	}
	return elems, geom.ClusterItems(len(segs), dir, coord, 16, workers), entry
}
