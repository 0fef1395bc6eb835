package extract

import (
	"math"
	"sync/atomic"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// Nested-basis (H²) compressed partial-inductance operator.
//
// The flat scheme in aca.go factors every admissible block pair
// independently, so each cluster re-derives what is essentially the
// same information — how its elements look from far away — once per
// partner. Both the factor storage and the build cost therefore carry
// an extra log factor times the per-block rank, and the 2048-filament
// wins in BENCH_fasthenry.json flatten near 10⁴ elements. The
// nested-basis scheme removes the redundancy the FMM way:
//
//   - every cluster-tree node t gets ONE interpolation basis U_t,
//     computed algebraically as a row interpolative decomposition of
//     the interaction between t's elements and a sampled far field
//     (the union of t's and its ancestors' coupling partners). The ID
//     selects k skeleton elements of t whose kernel rows span, to the
//     requested tolerance, every row in the block — so any far
//     interaction of t factors through those k representatives;
//   - bases are nested: a non-leaf's basis is an ID over its
//     children's skeleton elements only, stored as a small transfer
//     matrix, so basis construction is bottom-up and touches each
//     level's skeletons once — O(N log N) kernel evaluations total;
//   - an admissible pair (a, b) stores only the k_a x k_b coupling
//     block A(skel_a, skel_b) between the shared bases;
//   - the matvec runs in three phases: an upward pass restricting x
//     through the transfer matrices to per-cluster skeleton
//     coefficients, the coupling multiplications, and a downward pass
//     prolongating the results back to elements. Near and diagonal
//     blocks stay exact dense, identical to the flat path.
//
// Construction parallelizes over the cluster tree: the partition is
// serial geometry, then bases are built level by level (deepest
// first) with nodes of a level fanned out across workers, and
// coupling/near/diagonal blocks are filled concurrently. Every block
// and basis depends only on its own deterministic index lists, so the
// operator is bit-identical at any worker count.

// H2Options controls the nested-basis compression.
type H2Options struct {
	// Tol is the relative tolerance of each interpolative
	// decomposition: pivoting stops once the largest remaining residual
	// row norm falls below Tol times the largest initial row norm.
	// Default 1e-8.
	Tol float64
	// Workers caps the goroutines used during construction. 0 = process
	// default (matrix.Workers), 1 = fully serial. The operator is
	// bit-identical at every worker count.
	Workers int
}

func (o H2Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

// farSample caps how many far-field elements each basis samples.
// Larger samples make the skeleton selection see more of the true far
// field at proportional build cost.
const farSample = 128

// h2node wraps one cluster-tree node with its nested basis.
type h2node struct {
	t           *geom.ClusterNode
	parent      *h2node
	left, right *h2node
	// partners lists the element sets this node couples to directly
	// (one entry per admissible pair the partition anchored here), in
	// deterministic partition order. The far-field sample of every
	// descendant draws from these lists up the ancestor chain.
	partners [][]int
	need     bool // a basis is required here (endpoint or under one)
	skel     []int
	// u is the basis, row-major m x k: for a leaf m = len(t.Segs) and
	// rows follow t.Segs; for a non-leaf m = k_left + k_right and rows
	// follow the children's skeletons (left first) — the transfer
	// matrix. Skeleton rows are exact unit rows.
	u []float64
	k int
	// off is the node's offset into the matvec workspace (-1 without a
	// basis); e0 is the tree-order start of t.Segs.
	off, e0 int
}

// h2coupling is one admissible interaction: the k_a x k_b block
// A(skel_a, skel_b), row-major.
type h2coupling struct {
	a, b *h2node
	s    []float64
}

// H2L is the nested-basis compressed partial-inductance operator. Like
// CompressedL it is immutable after construction and safe for
// concurrent use; unlike CompressedL its two probe directions associate
// the same products in different orders, so ⟨e_i, L e_j⟩ and
// ⟨e_j, L e_i⟩ agree to rounding, not bit-exactly.
type H2L struct {
	nearField
	nodes []*h2node // post-order: children before parents
	coups []h2coupling
	wsize int // Σ k over nodes with bases
	stats CompressStats
}

var _ LOperator = (*H2L)(nil)

// Stats returns the compression summary.
func (h *H2L) Stats() CompressStats { return h.stats }

// ApplyTo computes dst = L*x over real vectors of length Dim.
func (h *H2L) ApplyTo(dst, x []float64) { h.applyR(dst, x, h) }

// ApplyCTo computes dst = L*x over complex vectors of length Dim.
func (h *H2L) ApplyCTo(dst, x []complex128) { h.applyC(dst, x, h) }

// applyFar runs the three nested-basis passes on the planes, with the
// skeleton coefficients x̂ and ŷ in w.cx and w.cy.
func (h *H2L) applyFar(w *workspace, np int) {
	for p := 0; p < np; p++ {
		clear(w.cx[p])
		clear(w.cy[p])
	}
	// Upward, children before parents so a transfer reads finished
	// child coefficients: x̂_t = U_tᵀ x over a leaf's elements, or the
	// transfer rows times the children's x̂ (left first).
	for _, nd := range h.nodes {
		if nd.off < 0 || nd.k == 0 {
			continue
		}
		k := nd.k
		for p := 0; p < np; p++ {
			xh := w.cx[p]
			out := xh[nd.off : nd.off+k]
			if nd.left == nil {
				colAxpys(nd.u, w.x[p][nd.e0:nd.e0+len(nd.t.Segs)], out)
				continue
			}
			l, r := nd.left, nd.right
			colAxpys(nd.u[:l.k*k], xh[l.off:l.off+l.k], out)
			colAxpys(nd.u[l.k*k:], xh[r.off:r.off+r.k], out)
		}
	}
	// Interaction: each coupling applied both ways.
	for ci := range h.coups {
		cp := &h.coups[ci]
		a, b := cp.a, cp.b
		for p := 0; p < np; p++ {
			xh, yh := w.cx[p], w.cy[p]
			symPair(cp.s, xh[a.off:a.off+a.k], xh[b.off:b.off+b.k],
				yh[a.off:a.off+a.k], yh[b.off:b.off+b.k])
		}
	}
	// Downward, parents before children: ŷ prolongates through the
	// transfer rows into the children's ŷ, and through a leaf basis
	// into the elements.
	for i := len(h.nodes) - 1; i >= 0; i-- {
		nd := h.nodes[i]
		if nd.off < 0 || nd.k == 0 {
			continue
		}
		k := nd.k
		for p := 0; p < np; p++ {
			yh := w.cy[p]
			in := yh[nd.off : nd.off+k]
			if nd.left == nil {
				rowSums(nd.u, in, w.y[p][nd.e0:nd.e0+len(nd.t.Segs)])
				continue
			}
			l, r := nd.left, nd.right
			rowSums(nd.u[:l.k*k], in, yh[l.off:l.off+l.k])
			rowSums(nd.u[l.k*k:], in, yh[r.off:r.off+r.k])
		}
	}
}

// EachUpper visits every strictly-upper-triangle entry once (coupling
// entries are the nested-basis approximation). Cross-direction pairs,
// identically zero, are not visited. Cost is O(n) per coupled element
// pair — use for inspection and small exports, not in solves.
func (h *H2L) EachUpper(fn func(i, j int, v float64)) {
	eachUpperDense(h.diag, h.near, fn)
	emit := func(i, j int, v float64) {
		if i < j {
			fn(i, j, v)
		} else {
			fn(j, i, v)
		}
	}
	memo := make(map[*h2node][]float64)
	for ci := range h.coups {
		cp := &h.coups[ci]
		va := h.vfull(cp.a, memo) // ma x ka over a's subtree elements
		vb := h.vfull(cp.b, memo)
		ka, kb := cp.a.k, cp.b.k
		aEl, bEl := cp.a.t.Segs, cp.b.t.Segs
		// w = va * s, then block = w * vbᵀ.
		w := make([]float64, len(aEl)*kb)
		for ia := range aEl {
			for p := 0; p < ka; p++ {
				av := va[ia*ka+p]
				if av == 0 {
					continue
				}
				srow := cp.s[p*kb : (p+1)*kb]
				wrow := w[ia*kb : (ia+1)*kb]
				for q, sv := range srow {
					wrow[q] += av * sv
				}
			}
		}
		for ia, ei := range aEl {
			wrow := w[ia*kb : (ia+1)*kb]
			for jb, ej := range bEl {
				s := 0.0
				vrow := vb[jb*kb : (jb+1)*kb]
				for q, wv := range wrow {
					s += wv * vrow[q]
				}
				emit(ei, ej, s)
			}
		}
	}
}

// vfull materializes a node's element-level basis (subtree elements x
// k, rows in t.Segs order) by pushing transfer matrices down through
// the children, memoized per EachUpper call.
func (h *H2L) vfull(nd *h2node, memo map[*h2node][]float64) []float64 {
	if v, ok := memo[nd]; ok {
		return v
	}
	var v []float64
	if nd.left == nil {
		v = nd.u
	} else {
		vl := h.vfull(nd.left, memo)
		vr := h.vfull(nd.right, memo)
		k, k1 := nd.k, nd.left.k
		ml, mr := len(nd.left.t.Segs), len(nd.right.t.Segs)
		v = make([]float64, (ml+mr)*k)
		for i := 0; i < ml; i++ {
			out := v[i*k : (i+1)*k]
			for p := 0; p < k1; p++ {
				lv := vl[i*k1+p]
				if lv == 0 {
					continue
				}
				trow := nd.u[p*k : (p+1)*k]
				for c, tv := range trow {
					out[c] += lv * tv
				}
			}
		}
		k2 := nd.right.k
		for i := 0; i < mr; i++ {
			out := v[(ml+i)*k : (ml+i+1)*k]
			for p := 0; p < k2; p++ {
				rv := vr[i*k2+p]
				if rv == 0 {
					continue
				}
				trow := nd.u[(k1+p)*k : (k1+p+1)*k]
				for c, tv := range trow {
					out[c] += rv * tv
				}
			}
		}
	}
	memo[nd] = v
	return v
}

// h2builder carries the construction state.
type h2builder struct {
	entry   func(i, j int) float64 // symmetric
	tol     float64
	workers int

	byTree map[*geom.ClusterNode]*h2node
	nodes  []*h2node    // post-order across all trees
	cands  [][2]*h2node // admissible pairs, partition order
	farEv  int64        // kernel entries into bases/couplings (atomic, per block)
	op     *H2L
}

// CompressLH2 builds the nested-basis operator over elems from the
// given per-direction cluster trees. The entry and tree contracts match
// CompressL. The partition is CompressL's; each admissible pair it
// leaves becomes a coupling between the pair's node bases instead of
// per-pair ACA factors.
func CompressLH2(elems []HElement, trees []*geom.ClusterNode, entry func(i, j int) float64, opt H2Options) *H2L {
	b := &h2builder{
		entry:   symmetric(entry),
		tol:     opt.tol(),
		workers: opt.Workers,
		byTree:  make(map[*geom.ClusterNode]*h2node),
		op:      &H2L{nearField: nearField{n: len(elems)}},
	}
	for _, t := range trees {
		b.wrap(t, nil)
	}
	p := newPartition(elems, trees)
	for _, pair := range p.far {
		na, nb := b.byTree[pair[0]], b.byTree[pair[1]]
		na.partners = append(na.partners, pair[1].Segs)
		nb.partners = append(nb.partners, pair[0].Segs)
		b.cands = append(b.cands, [2]*h2node{na, nb})
	}
	b.buildBases()
	b.resolveCouplings()
	b.op.fillDense(p, b.entry, b.workers)
	b.assignOffsets()
	pos := b.op.indexTreeOrder(trees, b.op.wsize)
	for _, nd := range b.nodes {
		nd.e0 = treeSpan(pos, nd.t.Segs)
	}
	b.finishStats()
	return b.op
}

// wrap mirrors the cluster tree into h2nodes, post-order.
func (b *h2builder) wrap(t *geom.ClusterNode, parent *h2node) *h2node {
	nd := &h2node{t: t, parent: parent, off: -1}
	if !t.IsLeaf() {
		nd.left = b.wrap(t.Left, nd)
		nd.right = b.wrap(t.Right, nd)
	}
	b.byTree[t] = nd
	b.nodes = append(b.nodes, nd)
	return nd
}

// buildBases marks every coupling endpoint and its subtree as needing a
// basis, then builds bases level by level from the deepest up, fanning
// each level's nodes across the workers. A node's far-field sample —
// the partner element sets of itself and its ancestors — is fixed by
// the serial partition, so the bases are deterministic.
func (b *h2builder) buildBases() {
	for _, pair := range b.cands {
		pair[0].need = true
		pair[1].need = true
	}
	// Propagate need down: nested bases interpolate children skeletons,
	// recursively to the leaves.
	var markDown func(nd *h2node)
	markDown = func(nd *h2node) {
		nd.need = true
		if nd.left != nil {
			markDown(nd.left)
			markDown(nd.right)
		}
	}
	maxLevel := 0
	for _, nd := range b.nodes {
		if nd.need {
			markDown(nd)
		}
		if nd.t.Level > maxLevel {
			maxLevel = nd.t.Level
		}
	}
	byLevel := make([][]*h2node, maxLevel+1)
	for _, nd := range b.nodes {
		if nd.need {
			byLevel[nd.t.Level] = append(byLevel[nd.t.Level], nd)
		}
	}
	for lvl := maxLevel; lvl >= 0; lvl-- {
		level := byLevel[lvl]
		matrix.ParallelItems(b.workers, len(level), func(i int) {
			b.buildBasis(level[i])
		})
	}
}

// fieldSample gathers up to farSample far-field element indices for a
// node: a deterministic stride over the concatenated partner lists of
// the node and its ancestors. The partition tiles the matrix, so those
// lists are disjoint.
func (b *h2builder) fieldSample(nd *h2node) []int {
	total := 0
	for a := nd; a != nil; a = a.parent {
		for _, p := range a.partners {
			total += len(p)
		}
	}
	budget := farSample
	if total == 0 {
		return nil
	}
	stride := 1
	if total > budget {
		stride = total / budget
	}
	out := make([]int, 0, budget)
	pos := 0
	for a := nd; a != nil; a = a.parent {
		for _, p := range a.partners {
			for _, ei := range p {
				if pos%stride == 0 {
					out = append(out, ei)
					if len(out) == budget {
						return out
					}
				}
				pos++
			}
		}
	}
	return out
}

// buildBasis computes one node's interpolative basis (or transfer
// matrix). Children of a needed non-leaf are guaranteed built already
// (levels run deepest-first).
func (b *h2builder) buildBasis(nd *h2node) {
	var rows []int
	if nd.left == nil {
		rows = nd.t.Segs
	} else {
		rows = make([]int, 0, len(nd.left.skel)+len(nd.right.skel))
		rows = append(rows, nd.left.skel...)
		rows = append(rows, nd.right.skel...)
	}
	cols := b.fieldSample(nd)
	m, s := len(rows), len(cols)
	if m == 0 || s == 0 {
		nd.skel, nd.u, nd.k = nil, nil, 0
		return
	}
	mat := make([]float64, m*s)
	for a, ri := range rows {
		for c, cj := range cols {
			mat[a*s+c] = b.entry(ri, cj)
		}
	}
	atomic.AddInt64(&b.farEv, int64(m*s))
	pivots, u := rowID(mat, m, s, b.tol)
	nd.k = len(pivots)
	nd.u = u
	nd.skel = make([]int, nd.k)
	for l, p := range pivots {
		nd.skel[l] = rows[p]
	}
}

// rowID computes a row interpolative decomposition of the m x s matrix
// mat (row-major): it selects pivot rows p_1..p_k and returns U (m x k)
// with U[p_l] = e_l and mat ≈ U * mat[pivots], pivoting greedily on the
// largest residual row norm until it drops below tol times the largest
// initial row norm; k ≤ min(m, s) always reaches it.
func rowID(mat []float64, m, s int, tol float64) (pivots []int, u []float64) {
	res := append([]float64(nil), mat...)
	norm2 := make([]float64, m)
	maxNorm0 := 0.0
	for i := 0; i < m; i++ {
		n2 := 0.0
		for _, v := range res[i*s : (i+1)*s] {
			n2 += v * v
		}
		norm2[i] = n2
		if n2 > maxNorm0 {
			maxNorm0 = n2
		}
	}
	if maxNorm0 == 0 {
		return nil, nil
	}
	thresh2 := tol * tol * maxNorm0
	limit := m
	if s < limit {
		limit = s
	}
	isPivot := make([]bool, m)
	// coef[i*limit+l]: coefficient of row i on orthonormal direction l.
	coef := make([]float64, m*limit)
	k := 0
	for {
		p, best := -1, thresh2
		for i := 0; i < m; i++ {
			if !isPivot[i] && norm2[i] > best {
				p, best = i, norm2[i]
			}
		}
		if p < 0 {
			break // converged
		}
		if k == limit {
			break // residual is rounding noise beyond min(m, s) terms
		}
		// Orthonormalize the pivot row's residual and project the rest.
		prow := res[p*s : (p+1)*s]
		pn := 0.0
		for _, v := range prow {
			pn += v * v
		}
		pn = math.Sqrt(pn)
		if pn == 0 {
			norm2[p] = 0
			continue
		}
		inv := 1 / pn
		for j := range prow {
			prow[j] *= inv
		}
		coef[p*limit+k] = pn
		isPivot[p] = true
		for i := 0; i < m; i++ {
			if isPivot[i] {
				continue
			}
			irow := res[i*s : (i+1)*s]
			d := 0.0
			for j, qv := range prow {
				d += irow[j] * qv
			}
			coef[i*limit+k] = d
			for j, qv := range prow {
				irow[j] -= d * qv
			}
			norm2[i] -= d * d
			if norm2[i] < 0 {
				norm2[i] = 0
			}
		}
		pivots = append(pivots, p)
		norm2[p] = 0
		k++
	}
	// U solves U * C_S = C row-wise; C_S (the pivot rows' coefficients)
	// is lower-triangular with positive diagonal by construction.
	u = make([]float64, m*k)
	for l, p := range pivots {
		u[p*k+l] = 1
	}
	for i := 0; i < m; i++ {
		if isPivot[i] {
			continue
		}
		urow := u[i*k : i*k+k]
		ci := coef[i*limit : i*limit+k]
		for l := k - 1; l >= 0; l-- {
			x := ci[l]
			for r := l + 1; r < k; r++ {
				x -= urow[r] * coef[pivots[r]*limit+l]
			}
			urow[l] = x / coef[pivots[l]*limit+l]
		}
	}
	return pivots, u
}

// resolveCouplings turns every admissible candidate into a coupling
// block between its endpoints' bases and fills the blocks in parallel.
func (b *h2builder) resolveCouplings() {
	coups := make([]h2coupling, len(b.cands))
	for i, pair := range b.cands {
		coups[i] = h2coupling{a: pair[0], b: pair[1]}
	}
	matrix.ParallelItems(b.workers, len(coups), func(i int) {
		cp := &coups[i]
		ka, kb := cp.a.k, cp.b.k
		s := make([]float64, ka*kb)
		for p, ri := range cp.a.skel {
			for q, cj := range cp.b.skel {
				s[p*kb+q] = b.entry(ri, cj)
			}
		}
		atomic.AddInt64(&b.farEv, int64(ka*kb))
		cp.s = s
	})
	// Drop rank-zero couplings (an endpoint whose far field vanished);
	// they contribute nothing to the matvec.
	kept := coups[:0]
	for _, cp := range coups {
		if cp.a.k > 0 && cp.b.k > 0 {
			kept = append(kept, cp)
		}
	}
	b.op.coups = kept
}

// assignOffsets lays the per-node skeleton coefficients out in one flat
// workspace and publishes the node order to the operator.
func (b *h2builder) assignOffsets() {
	off := 0
	for _, nd := range b.nodes {
		if nd.need {
			nd.off = off
			off += nd.k
		}
	}
	b.op.wsize = off
	b.op.nodes = b.nodes
}

// finishStats adds the bases and couplings to the shared dense-part
// summary.
func (b *h2builder) finishStats() {
	st := b.op.nearStats(int(b.farEv))
	st.Nested = true
	for _, nd := range b.op.nodes {
		if !nd.need || nd.k == 0 {
			continue
		}
		st.StoredFloats += len(nd.u)
		ls := st.level(nd.t.Level)
		ls.Bases++
		ls.BasisMaxRank = max(ls.BasisMaxRank, nd.k)
	}
	for _, cp := range b.op.coups {
		st.addFar(max(cp.a.t.Level, cp.b.t.Level), min(cp.a.k, cp.b.k), len(cp.s))
	}
	st.finish()
	b.op.stats = st
}

// CompressInductanceH2 builds the nested-basis partial-inductance
// operator over the given layout segments, mirroring
// CompressInductance: one element per segment, position k of the
// operator corresponding to segs[k].
func CompressInductanceH2(l *geom.Layout, segs []int, gmd GMDOptions, opt H2Options) *H2L {
	elems, trees, entry := segmentOperatorInputs(l, segs, gmd, opt.Workers)
	return CompressLH2(elems, trees, entry, opt)
}
