package extract

import (
	"sync"

	"inductance101/internal/geom"
)

// Tree-ordered planar matvec shared by both compressed operators.
//
// Every geom.ClusterNode's Segs is the concatenation of its children's,
// so listing the roots' elements end to end gives a permutation — the
// tree order — in which every block the partition produces (diagonal
// leaf, near pair, ACA far pair, nested-basis leaf) covers one
// contiguous range. The build records that order and each block's
// start once. A matvec gathers x into tree order, splitting a complex
// vector into real and imaginary float64 planes; runs every block on
// contiguous slices of the planes; and scatters the result back. The
// factors are real, so a complex apply is the real body run on each
// plane: two multiplies per stored entry instead of the four of
// complex(v, 0)*x, and no index gather or scatter inside a block.
//
// The body keeps the arithmetic of the gather/scatter apply it
// replaced, entry for entry: every row sum runs in increasing column
// order from +0, and every axpy adds its terms to an output entry in
// the original row order, so each output entry sees the same sequence
// of roundings. Grouping four rows per pass changes only which
// independent sums are in flight together. See DESIGN.md §10 for why
// the planar products equal the complex ones bit for bit.

// nearField is the exact dense part both compressed operators share —
// the diagonal leaf blocks and the off-diagonal near blocks — together
// with the tree order and the scratch the planar matvec runs on. It
// supplies Dim, Diag and DiagBlocks to the operators that embed it.
type nearField struct {
	n    int
	diag []denseBlock
	near []denseBlock
	// order is the tree order: plane position p holds element order[p].
	order []int
	// elemBlock/elemPos locate each element's diagonal block for O(1)
	// Diag lookups.
	elemBlock []int32
	elemPos   []int32
	// scratch pools *workspace values, so concurrent applies (parallel
	// sweep workers share one operator) each get their own planes and
	// a warm apply allocates nothing.
	scratch sync.Pool
}

// workspace is one apply's scratch: the tree-ordered operand and
// result planes (plane 0 only for a real apply, real and imaginary for
// a complex one) and the far-field coefficient planes (ACA rank
// coefficients in cx[0], or the nested-basis skeleton coefficients
// x̂ and ŷ per plane).
type workspace struct {
	x, y   [2][]float64
	cx, cy [2][]float64
}

// farField applies an operator's compressed far part to the np
// gathered planes of w, after the dense blocks.
type farField interface {
	applyFar(w *workspace, np int)
}

// Dim returns the operator dimension.
func (f *nearField) Dim() int { return f.n }

// DiagBlocks returns the dense diagonal leaf blocks, the basis of the
// block-Jacobi preconditioner in internal/fasthenry.
func (f *nearField) DiagBlocks() []DiagBlock {
	out := make([]DiagBlock, len(f.diag))
	for i, b := range f.diag {
		out[i] = DiagBlock{Idx: b.rows, V: b.v}
	}
	return out
}

// Diag returns the exact diagonal entry L[i][i].
func (f *nearField) Diag(i int) float64 {
	b := &f.diag[f.elemBlock[i]]
	p := int(f.elemPos[i])
	return b.v[p*len(b.cols)+p]
}

// indexTreeOrder records the tree order of trees, locates every dense
// block in it, builds the per-element diagonal lookup and sizes the
// scratch pool (farSize coefficient floats per plane). It returns the
// element-to-position map for the caller's far-field blocks. Trees
// must partition [0, n).
func (f *nearField) indexTreeOrder(trees []*geom.ClusterNode, farSize int) (pos []int) {
	f.order = make([]int, 0, f.n)
	for _, t := range trees {
		f.order = append(f.order, t.Segs...)
	}
	pos = make([]int, f.n)
	for i := range pos {
		pos[i] = -1
	}
	for p, e := range f.order {
		if e < 0 || e >= f.n || pos[e] >= 0 {
			panic("extract: cluster trees do not partition the elements")
		}
		pos[e] = p
	}
	if len(f.order) != f.n {
		panic("extract: cluster trees do not partition the elements")
	}
	for _, blocks := range [2][]denseBlock{f.diag, f.near} {
		for bi := range blocks {
			b := &blocks[bi]
			b.r0, b.c0 = treeSpan(pos, b.rows), treeSpan(pos, b.cols)
		}
	}
	f.elemBlock = make([]int32, f.n)
	f.elemPos = make([]int32, f.n)
	for bi, b := range f.diag {
		for p, i := range b.rows {
			f.elemBlock[i] = int32(bi)
			f.elemPos[i] = int32(p)
		}
	}
	n := f.n
	f.scratch.New = func() any {
		w := &workspace{}
		for p := range w.x {
			w.x[p] = make([]float64, n)
			w.y[p] = make([]float64, n)
			w.cx[p] = make([]float64, farSize)
			w.cy[p] = make([]float64, farSize)
		}
		return w
	}
	return pos
}

// treeSpan returns the tree-order start of idx, which must be exactly
// the contiguous range order[start : start+len(idx)]. An empty idx
// starts at 0.
func treeSpan(pos []int, idx []int) int {
	if len(idx) == 0 {
		return 0
	}
	s := pos[idx[0]]
	for a, e := range idx {
		if pos[e] != s+a {
			panic("extract: block is not a contiguous range of the tree order")
		}
	}
	return s
}

// applyR computes dst = L*x over real vectors on plane 0.
func (f *nearField) applyR(dst, x []float64, far farField) {
	if len(dst) != f.n || len(x) != f.n {
		panic("extract: compressed operator dimension mismatch")
	}
	w := f.scratch.Get().(*workspace)
	xp, yp := w.x[0], w.y[0]
	for p, e := range f.order {
		xp[p] = x[e]
	}
	f.run(w, 1, far)
	for p, e := range f.order {
		dst[e] = yp[p]
	}
	f.scratch.Put(w)
}

// applyC computes dst = L*x over complex vectors on the real and
// imaginary planes.
func (f *nearField) applyC(dst, x []complex128, far farField) {
	if len(dst) != f.n || len(x) != f.n {
		panic("extract: compressed operator dimension mismatch")
	}
	w := f.scratch.Get().(*workspace)
	xr, xi := w.x[0], w.x[1]
	for p, e := range f.order {
		v := x[e]
		xr[p], xi[p] = real(v), imag(v)
	}
	f.run(w, 2, far)
	yr, yi := w.y[0], w.y[1]
	for p, e := range f.order {
		dst[e] = complex(yr[p], yi[p])
	}
	f.scratch.Put(w)
}

// run applies the diagonal blocks, the near blocks (both ways) and the
// far field, in that order, to the np gathered planes of w.
func (f *nearField) run(w *workspace, np int, far farField) {
	for p := 0; p < np; p++ {
		clear(w.y[p])
	}
	for bi := range f.diag {
		b := &f.diag[bi]
		r0, r1 := b.r0, b.r0+len(b.rows)
		for p := 0; p < np; p++ {
			rowSums(b.v, w.x[p][r0:r1], w.y[p][r0:r1])
		}
	}
	for bi := range f.near {
		b := &f.near[bi]
		r0, r1 := b.r0, b.r0+len(b.rows)
		c0, c1 := b.c0, b.c0+len(b.cols)
		for p := 0; p < np; p++ {
			x, y := w.x[p], w.y[p]
			symPair(b.v, x[r0:r1], x[c0:c1], y[r0:r1], y[c0:c1])
		}
	}
	far.applyFar(w, np)
}

// rowSums accumulates y[i] += Σ_j v[i][j]·x[j] for the len(y) x len(x)
// row-major block v. Each row's sum starts at +0 and adds its terms in
// increasing j, in rowSumsAVX2 or in the scalar kernel: the bits are
// the same either way.
func rowSums(v, x, y []float64) {
	if planarAVX2 && len(x) > 0 && len(y) > 0 {
		v = v[:len(y)*len(x)]
		rowSumsAVX2(&v[0], &x[0], &y[0], len(y), len(x))
		return
	}
	rowSumsScalar(v, x, y)
}

// rowSumsScalar is rowSums in Go, four rows at a time: the non-AVX2
// path and the AVX2 kernel's oracle.
func rowSumsScalar(v, x, y []float64) {
	n := len(x)
	i := 0
	for ; i+4 <= len(y); i += 4 {
		r0 := v[i*n:][:n]
		r1 := v[(i+1)*n:][:n]
		r2 := v[(i+2)*n:][:n]
		r3 := v[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		y[i] += s0
		y[i+1] += s1
		y[i+2] += s2
		y[i+3] += s3
	}
	for ; i < len(y); i++ {
		r := v[i*n:][:n]
		s := 0.0
		for j, xj := range x {
			s += r[j] * xj
		}
		y[i] += s
	}
}

// colAxpys accumulates y[j] += v[i][j]·x[i] for the len(x) x len(y)
// row-major block v: one axpy per row, applied to each entry of y in
// increasing row order.
func colAxpys(v, x, y []float64) {
	if planarAVX2 && len(x) > 0 && len(y) > 0 {
		v = v[:len(x)*len(y)]
		colAxpysAVX2(&v[0], &x[0], &y[0], len(x), len(y))
		return
	}
	colAxpysScalar(v, x, y)
}

// colAxpysScalar is colAxpys in Go, four rows at a time: the non-AVX2
// path and the AVX2 kernel's oracle.
func colAxpysScalar(v, x, y []float64) {
	n := len(y)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		r0 := v[i*n:][:n]
		r1 := v[(i+1)*n:][:n]
		r2 := v[(i+2)*n:][:n]
		r3 := v[(i+3)*n:][:n]
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		for j, yj := range y {
			yj += r0[j] * x0
			yj += r1[j] * x1
			yj += r2[j] * x2
			yj += r3[j] * x3
			y[j] = yj
		}
	}
	for ; i < len(x); i++ {
		r := v[i*n:][:n]
		xi := x[i]
		for j, yj := range y {
			y[j] = yj + r[j]*xi
		}
	}
}

// symPair applies an off-diagonal block both ways in one pass over v
// (len(xr) x len(xc), row-major): yr += v·xc as rowSums does, and
// yc += vᵀ·xr as colAxpys does. The row and column ranges are
// disjoint. With AVX2 the rows in whole groups of four run through
// symPairAVX2 and the rest, which come last in every yc entry's row
// order, through the scalar kernel.
func symPair(v, xr, xc, yr, yc []float64) {
	n, m4 := len(xc), len(xr)&^3
	if planarAVX2 && m4 > 0 && n > 0 {
		v, yr, yc = v[:len(xr)*n], yr[:len(xr)], yc[:n]
		symPairAVX2(&v[0], &xr[0], &xc[0], &yr[0], &yc[0], m4, n)
		v, xr, yr = v[m4*n:], xr[m4:], yr[m4:]
	}
	symPairScalar(v, xr, xc, yr, yc)
}

// symPairScalar is symPair in Go, four rows at a time: the non-AVX2
// path and the AVX2 kernel's oracle.
func symPairScalar(v, xr, xc, yr, yc []float64) {
	n := len(xc)
	yc = yc[:n]
	i := 0
	for ; i+4 <= len(xr); i += 4 {
		r0 := v[i*n:][:n]
		r1 := v[(i+1)*n:][:n]
		r2 := v[(i+2)*n:][:n]
		r3 := v[(i+3)*n:][:n]
		x0, x1, x2, x3 := xr[i], xr[i+1], xr[i+2], xr[i+3]
		var s0, s1, s2, s3 float64
		for j, xj := range xc {
			a0, a1, a2, a3 := r0[j], r1[j], r2[j], r3[j]
			s0 += a0 * xj
			s1 += a1 * xj
			s2 += a2 * xj
			s3 += a3 * xj
			yj := yc[j]
			yj += a0 * x0
			yj += a1 * x1
			yj += a2 * x2
			yj += a3 * x3
			yc[j] = yj
		}
		yr[i] += s0
		yr[i+1] += s1
		yr[i+2] += s2
		yr[i+3] += s3
	}
	for ; i < len(xr); i++ {
		r := v[i*n:][:n]
		xi := xr[i]
		s := 0.0
		for j, xj := range xc {
			a := r[j]
			s += a * xj
			yc[j] += a * xi
		}
		yr[i] += s
	}
}
