package extract

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

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
// (geom.Index.ClusterTreeParallel):
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
// Construction is two-phase so it parallelizes over the cluster tree:
// a serial geometric partition lists the diagonal, near and admissible
// blocks (no kernel evaluations), then workers claim blocks from the
// lists and fill them concurrently. Far blocks whose ACA hits the
// break-even rank cap are re-partitioned into their children between
// waves. Every block's content depends only on its own index lists, and
// blocks are stored in partition order, so the operator is
// bit-identical at any worker count.

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

// ElemTree is a cluster tree over element indices — the element-level
// mirror of geom.ClusterNode, with segments expanded into the elements
// they contain (a bar maps to itself, a FastHenry segment to its
// filaments).
type ElemTree struct {
	Elems       []int
	Left, Right *ElemTree
	// Level is the depth below the root (roots are level 0).
	Level int
}

// ElemTreesFromClusters converts segment cluster trees into element
// trees: each segment node's element list is the concatenation of
// elemsOf(seg) over its segments, preserving tree shape, order and
// levels.
func ElemTreesFromClusters(roots []*geom.ClusterNode, elemsOf func(seg int) []int) []*ElemTree {
	out := make([]*ElemTree, 0, len(roots))
	for _, r := range roots {
		out = append(out, elemTreeFrom(r, elemsOf, 0))
	}
	return out
}

func elemTreeFrom(n *geom.ClusterNode, elemsOf func(seg int) []int, level int) *ElemTree {
	t := &ElemTree{Level: level}
	if n.IsLeaf() {
		for _, si := range n.Segs {
			t.Elems = append(t.Elems, elemsOf(si)...)
		}
		return t
	}
	t.Left = elemTreeFrom(n.Left, elemsOf, level+1)
	t.Right = elemTreeFrom(n.Right, elemsOf, level+1)
	t.Elems = make([]int, 0, len(t.Left.Elems)+len(t.Right.Elems))
	t.Elems = append(t.Elems, t.Left.Elems...)
	t.Elems = append(t.Elems, t.Right.Elems...)
	return t
}

// ACAOptions controls the flat hierarchical compression.
type ACAOptions struct {
	// Tol is the relative Frobenius-norm tolerance of each low-rank
	// block: ACA stops adding rank-one terms once the latest term's
	// norm falls below Tol times the accumulated block norm. Default
	// 1e-8. Smaller is tighter and more expensive; the operator's
	// overall matvec error is of the same order as Tol.
	Tol float64
	// MaxRank caps each block's ACA rank; blocks that fail to converge
	// within the cap fall back to exact dense storage. Default: the
	// break-even rank m·n/(2(m+n)) beyond which the factors would cost
	// more than the dense block.
	MaxRank int
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

// nodeBounds is the cached geometry of one cluster-tree node.
type nodeBounds struct {
	axisLo, axisHi   float64
	crossLo, crossHi float64 // inflated by element radii
	zLo, zHi         float64 // inflated by element radii
}

func (b nodeBounds) crossExtent() float64 {
	return math.Hypot(b.crossHi-b.crossLo, b.zHi-b.zLo)
}

func gap(aLo, aHi, bLo, bHi float64) float64 {
	if aHi < bLo {
		return bLo - aHi
	}
	if bHi < aLo {
		return aLo - bHi
	}
	return 0
}

// elemBounds computes the bounding box of the given elements, inflated
// by their cross-section radii.
func elemBounds(elems []HElement, idx []int) nodeBounds {
	var b nodeBounds
	for i, ei := range idx {
		e := &elems[ei]
		if i == 0 {
			b = nodeBounds{
				axisLo: e.A0, axisHi: e.A1,
				crossLo: e.Cross - e.Rad, crossHi: e.Cross + e.Rad,
				zLo: e.Z - e.Rad, zHi: e.Z + e.Rad,
			}
			continue
		}
		b.axisLo = math.Min(b.axisLo, e.A0)
		b.axisHi = math.Max(b.axisHi, e.A1)
		b.crossLo = math.Min(b.crossLo, e.Cross-e.Rad)
		b.crossHi = math.Max(b.crossHi, e.Cross+e.Rad)
		b.zLo = math.Min(b.zLo, e.Z-e.Rad)
		b.zHi = math.Max(b.zHi, e.Z+e.Rad)
	}
	return b
}

// eta is the admissibility parameter of both compressed operators.
const eta = 1.0

// boundsAdmissible reports whether two bounded clusters are smooth
// enough to compress: separated in the cross plane by more than eta
// times their combined cross extents, or — for collinear clusters —
// separated along the routing axis by more than eta times their
// combined axis extents. Either separation bounds the kernel away from
// its near-field singularity across the whole block.
func boundsAdmissible(ba, bb nodeBounds) bool {
	crossDist := math.Hypot(
		gap(ba.crossLo, ba.crossHi, bb.crossLo, bb.crossHi),
		gap(ba.zLo, ba.zHi, bb.zLo, bb.zHi),
	)
	if crossDist > 0 && crossDist >= eta*(ba.crossExtent()+bb.crossExtent()) {
		return true
	}
	axisGap := gap(ba.axisLo, ba.axisHi, bb.axisLo, bb.axisHi)
	if axisGap > 0 && axisGap >= eta*((ba.axisHi-ba.axisLo)+(bb.axisHi-bb.axisLo)) {
		return true
	}
	return false
}

type compressor struct {
	elems   []HElement
	entry   func(i, j int) float64
	opt     ACAOptions
	bounds  map[*ElemTree]nodeBounds
	op      *CompressedL
	near    int64 // kernel entries into diagonal/near blocks (atomic)
	farEv   int64 // kernel entries sampled by ACA (atomic)
	workers int

	// Partition output, in deterministic order.
	diagSpecs []*ElemTree
	nearSpecs [][2]*ElemTree
	farCands  []farCand
}

type farCand struct {
	a, b  *ElemTree
	level int
}

func (c *compressor) boundsOf(t *ElemTree) nodeBounds {
	if b, ok := c.bounds[t]; ok {
		return b
	}
	b := elemBounds(c.elems, t.Elems)
	c.bounds[t] = b
	return b
}

// admissible reports whether the (a, b) interaction block is smooth
// enough to compress.
func (c *compressor) admissible(a, b *ElemTree) bool {
	return boundsAdmissible(c.boundsOf(a), c.boundsOf(b))
}

// CompressL builds the flat hierarchically compressed operator over
// elems from the given per-direction cluster trees. entry(i, j) must
// return the symmetric interaction L[i][j] and be safe to call with
// i == j; it is evaluated with i <= j only, and it must be safe for
// concurrent calls (the build fans out over ACAOptions.Workers). Trees
// must partition [0, len(elems)) and each tree must hold elements of a
// single direction.
func CompressL(elems []HElement, trees []*ElemTree, entry func(i, j int) float64, opt ACAOptions) *CompressedL {
	c := &compressor{
		elems:   elems,
		entry:   entry,
		opt:     opt,
		bounds:  make(map[*ElemTree]nodeBounds),
		op:      &CompressedL{nearField: nearField{n: len(elems)}},
		workers: opt.Workers,
	}
	for _, t := range trees {
		c.visitSelf(t)
	}
	// Cross-direction tree pairs couple nothing (zero blocks) and are
	// skipped entirely; within-direction roots are each a single tree.
	c.fillBlocks()
	pos := c.op.indexTreeOrder(trees, c.op.maxK)
	for bi := range c.op.far {
		b := &c.op.far[bi]
		b.r0, b.c0 = treeSpan(pos, b.rows), treeSpan(pos, b.cols)
	}
	c.finishStats()
	return c.op
}

// visitSelf partitions a tree against itself: leaves become dense
// diagonal blocks, sibling interactions are partitioned into near and
// admissible far candidates. Pure geometry — no kernel evaluations.
func (c *compressor) visitSelf(t *ElemTree) {
	if t.Left == nil {
		c.diagSpecs = append(c.diagSpecs, t)
		return
	}
	c.visitSelf(t.Left)
	c.visitSelf(t.Right)
	c.visitPair(t.Left, t.Right)
}

func (c *compressor) visitPair(a, b *ElemTree) {
	if len(a.Elems) == 0 || len(b.Elems) == 0 {
		return
	}
	if c.admissible(a, b) {
		lvl := a.Level
		if b.Level > lvl {
			lvl = b.Level
		}
		c.farCands = append(c.farCands, farCand{a: a, b: b, level: lvl})
		return
	}
	c.subdividePair(a, b)
}

// subdividePair recurses an inadmissible (or ACA-failed) pair one step
// down, mirroring the classic H-matrix partition.
func (c *compressor) subdividePair(a, b *ElemTree) {
	aLeaf, bLeaf := a.Left == nil, b.Left == nil
	switch {
	case aLeaf && bLeaf:
		c.nearSpecs = append(c.nearSpecs, [2]*ElemTree{a, b})
	case aLeaf:
		c.visitPair(a, b.Left)
		c.visitPair(a, b.Right)
	case bLeaf:
		c.visitPair(a.Left, b)
		c.visitPair(a.Right, b)
	case len(a.Elems) >= len(b.Elems):
		c.visitPair(a.Left, b)
		c.visitPair(a.Right, b)
	default:
		c.visitPair(a, b.Left)
		c.visitPair(a, b.Right)
	}
}

// fillBlocks evaluates the partitioned blocks in parallel waves: all
// diagonal/near blocks plus the current far candidates are filled
// concurrently; far candidates whose ACA fails are re-partitioned and
// their replacement blocks filled in the next wave. Block content
// depends only on its own index lists and blocks land in partition
// order, so the result is identical at every worker count.
func (c *compressor) fillBlocks() {
	for wave := 0; len(c.farCands) > 0 || wave == 0; wave++ {
		cands := c.farCands
		c.farCands = nil
		type farResult struct {
			u, v []float64
			k    int
			ok   bool
		}
		results := make([]farResult, len(cands))
		matrix.ParallelItems(c.workers, len(cands), func(i int) {
			u, v, k, ok := c.aca(cands[i].a.Elems, cands[i].b.Elems)
			results[i] = farResult{u: u, v: v, k: k, ok: ok}
		})
		for i, r := range results {
			if r.ok {
				c.op.far = append(c.op.far, lowRankBlock{
					rows: cands[i].a.Elems, cols: cands[i].b.Elems,
					u: r.u, v: r.v, k: r.k, level: cands[i].level,
				})
				if r.k > c.op.maxK {
					c.op.maxK = r.k
				}
				continue
			}
			// The block refused to converge within the break-even rank:
			// subdivide (or store dense at the leaves) next wave.
			c.subdividePair(cands[i].a, cands[i].b)
		}
	}
	// All dense blocks are known now; fill them concurrently.
	c.op.diag = make([]denseBlock, len(c.diagSpecs))
	matrix.ParallelItems(c.workers, len(c.diagSpecs), func(i int) {
		c.op.diag[i] = c.buildDiag(c.diagSpecs[i].Elems)
	})
	c.op.near = make([]denseBlock, len(c.nearSpecs))
	matrix.ParallelItems(c.workers, len(c.nearSpecs), func(i int) {
		c.op.near[i] = c.buildNear(c.nearSpecs[i][0].Elems, c.nearSpecs[i][1].Elems)
	})
}

// entryNear evaluates the symmetric kernel into a dense block with
// canonical argument order.
func (c *compressor) entryNear(i, j int) float64 {
	atomic.AddInt64(&c.near, 1)
	if i <= j {
		return c.entry(i, j)
	}
	return c.entry(j, i)
}

// entryFar evaluates the symmetric kernel as an ACA sample.
func (c *compressor) entryFar(i, j int) float64 {
	atomic.AddInt64(&c.farEv, 1)
	if i <= j {
		return c.entry(i, j)
	}
	return c.entry(j, i)
}

func (c *compressor) buildDiag(idx []int) denseBlock {
	n := len(idx)
	v := make([]float64, n*n)
	for a := 0; a < n; a++ {
		v[a*n+a] = c.entryNear(idx[a], idx[a])
		for b := a + 1; b < n; b++ {
			e := c.entryNear(idx[a], idx[b])
			v[a*n+b] = e
			v[b*n+a] = e
		}
	}
	return denseBlock{rows: idx, cols: idx, v: v}
}

func (c *compressor) buildNear(rows, cols []int) denseBlock {
	m, n := len(rows), len(cols)
	v := make([]float64, m*n)
	for a, i := range rows {
		for b, j := range cols {
			v[a*n+b] = c.entryNear(i, j)
		}
	}
	return denseBlock{rows: rows, cols: cols, v: v}
}

// aca runs partially pivoted adaptive cross approximation on the block
// entry(rows[a], cols[b]), sampling whole residual rows and columns
// until the newest rank-one term's norm drops below tol times the
// accumulated approximation norm.
func (c *compressor) aca(rows, cols []int) (u, v []float64, rank int, ok bool) {
	m, n := len(rows), len(cols)
	maxRank := c.opt.MaxRank
	if maxRank <= 0 {
		maxRank = m * n / (2 * (m + n))
	}
	if maxRank < 1 {
		// Blocks too small to ever profit from factors.
		return nil, nil, 0, false
	}
	tol := c.opt.tol()
	usedRow := make([]bool, m)
	usedCol := make([]bool, n)
	fro2 := 0.0
	i := 0
	rowsLeft := m
	for rank < maxRank {
		// Residual row i.
		r := make([]float64, n)
		for j := 0; j < n; j++ {
			e := c.entryFar(rows[i], cols[j])
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
				return u, v, rank, true
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
		for a := 0; a < m; a++ {
			e := c.entryFar(rows[a], cols[jp])
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
		if math.Sqrt(nu2*nv2) <= tol*math.Sqrt(math.Max(fro2, 0)) {
			return u, v, rank, true
		}
		if rowsLeft == 0 {
			return u, v, rank, true
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
	return nil, nil, 0, false
}

func (c *compressor) finishStats() {
	st := &c.op.stats
	st.N = c.op.n
	st.DiagBlocks = len(c.op.diag)
	st.NearBlocks = len(c.op.near)
	st.FarBlocks = len(c.op.far)
	for _, b := range c.op.diag {
		st.StoredFloats += len(b.v)
	}
	for _, b := range c.op.near {
		st.StoredFloats += len(b.v)
	}
	ranks := 0
	byLevel := make(map[int]*LevelStats)
	for _, b := range c.op.far {
		st.StoredFloats += len(b.u) + len(b.v)
		ranks += b.k
		if b.k > st.MaxRank {
			st.MaxRank = b.k
		}
		ls := byLevel[b.level]
		if ls == nil {
			ls = &LevelStats{Level: b.level, MinRank: b.k}
			byLevel[b.level] = ls
		}
		ls.FarBlocks++
		if b.k < ls.MinRank {
			ls.MinRank = b.k
		}
		if b.k > ls.MaxRank {
			ls.MaxRank = b.k
		}
		ls.AvgRank += float64(b.k)
	}
	if len(c.op.far) > 0 {
		st.AvgRank = float64(ranks) / float64(len(c.op.far))
	}
	st.Levels = sortedLevels(byLevel)
	st.DenseFloats = c.op.n * c.op.n
	st.NearKernelEvals = int(c.near)
	st.FarKernelEvals = int(c.farEv)
	st.KernelEvals = st.NearKernelEvals + st.FarKernelEvals
	st.DenseKernelEntries = c.op.n * (c.op.n + 1) / 2
}

// sortedLevels orders the per-level stats by depth and finalizes the
// rank averages (accumulated as sums).
func sortedLevels(byLevel map[int]*LevelStats) []LevelStats {
	out := make([]LevelStats, 0, len(byLevel))
	for _, ls := range byLevel {
		if ls.FarBlocks > 0 {
			ls.AvgRank /= float64(ls.FarBlocks)
		}
		out = append(out, *ls)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Level < out[j-1].Level; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
// trees, and the self/mutual kernel closure.
func segmentOperatorInputs(l *geom.Layout, segs []int, gmd GMDOptions, workers int) ([]HElement, []*ElemTree, func(i, j int) float64) {
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
	pos := make(map[int]int, len(segs))
	for k, si := range segs {
		pos[si] = k
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
	idx := geom.NewIndex(l, 0)
	roots := idx.ClusterTreeParallel(segs, 16, workers)
	trees := ElemTreesFromClusters(roots, func(si int) []int { return []int{pos[si]} })
	return elems, trees, entry
}
