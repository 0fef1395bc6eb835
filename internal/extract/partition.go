package extract

import (
	"math"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// The build both compressed operators share up to the far field.
//
// Flat ACA (aca.go) and nested bases (h2.go) differ only in what an
// admissible pair becomes. Everything before that is one pipeline:
//
//   - one cluster tree (geom.ClusterItems or mesh.ClusterFilaments)
//     over element positions, whose nodes each cover a contiguous range
//     of the tree order;
//   - one bounds-cached η-admissible partition walk (partition): a
//     diagonal leaf becomes a dense diagonal block, an inadmissible leaf
//     pair a dense near block, and an admissible pair is left on the
//     far list for the builder to claim;
//   - one dense fill of the diagonal and near blocks (fillDense)
//     through one symmetric entry wrapper;
//   - one stats core (nearStats, addFar, finish) filling the block
//     counts, storage, kernel-evaluation totals and per-level ranks.

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

// partition is the block partition of one set of cluster trees. Pure
// geometry: building it evaluates no kernel entry. Each list is in the
// deterministic order the walk produced it.
type partition struct {
	elems  []HElement
	bounds map[*geom.ClusterNode]nodeBounds
	diag   []*geom.ClusterNode    // leaves: dense diagonal blocks
	near   [][2]*geom.ClusterNode // inadmissible leaf pairs: dense blocks
	far    [][2]*geom.ClusterNode // admissible pairs the builder has not claimed
}

// newPartition walks every tree against itself. Cross-direction tree
// pairs couple nothing (zero blocks) and are never visited.
func newPartition(elems []HElement, trees []*geom.ClusterNode) *partition {
	p := &partition{elems: elems, bounds: make(map[*geom.ClusterNode]nodeBounds)}
	for _, t := range trees {
		p.self(t)
	}
	return p
}

// self partitions a tree against itself: leaves become diagonal
// blocks, sibling interactions are partitioned by pair.
func (p *partition) self(t *geom.ClusterNode) {
	if t.IsLeaf() {
		p.diag = append(p.diag, t)
		return
	}
	p.self(t.Left)
	p.self(t.Right)
	p.pair(t.Left, t.Right)
}

// pair puts an admissible pair on the far list and splits any other.
func (p *partition) pair(a, b *geom.ClusterNode) {
	if len(a.Segs) == 0 || len(b.Segs) == 0 {
		return
	}
	if boundsAdmissible(p.boundsOf(a), p.boundsOf(b)) {
		p.far = append(p.far, [2]*geom.ClusterNode{a, b})
		return
	}
	p.split(a, b)
}

// split recurses a pair one step down, mirroring the classic H-matrix
// partition: two leaves become a near block, otherwise the leaf-free
// side (the larger one when both have children) is halved. The flat
// builder sends a far pair whose ACA failed back through here.
func (p *partition) split(a, b *geom.ClusterNode) {
	aLeaf, bLeaf := a.IsLeaf(), b.IsLeaf()
	switch {
	case aLeaf && bLeaf:
		p.near = append(p.near, [2]*geom.ClusterNode{a, b})
	case aLeaf:
		p.pair(a, b.Left)
		p.pair(a, b.Right)
	case bLeaf:
		p.pair(a.Left, b)
		p.pair(a.Right, b)
	case len(a.Segs) >= len(b.Segs):
		p.pair(a.Left, b)
		p.pair(a.Right, b)
	default:
		p.pair(a, b.Left)
		p.pair(a, b.Right)
	}
}

func (p *partition) boundsOf(t *geom.ClusterNode) nodeBounds {
	if b, ok := p.bounds[t]; ok {
		return b
	}
	b := elemBounds(p.elems, t.Segs)
	p.bounds[t] = b
	return b
}

// symmetric wraps an entry function evaluated with i <= j only into
// one callable with its arguments in either order.
func symmetric(entry func(i, j int) float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		if i <= j {
			return entry(i, j)
		}
		return entry(j, i)
	}
}

// fillDense evaluates the partition's diagonal and near blocks exactly,
// each block on one worker. entry must already be symmetric.
func (f *nearField) fillDense(p *partition, entry func(i, j int) float64, workers int) {
	f.diag = make([]denseBlock, len(p.diag))
	matrix.ParallelItems(workers, len(p.diag), func(bi int) {
		idx := p.diag[bi].Segs
		n := len(idx)
		v := make([]float64, n*n)
		for a := 0; a < n; a++ {
			v[a*n+a] = entry(idx[a], idx[a])
			for c := a + 1; c < n; c++ {
				e := entry(idx[a], idx[c])
				v[a*n+c] = e
				v[c*n+a] = e
			}
		}
		f.diag[bi] = denseBlock{rows: idx, cols: idx, v: v}
	})
	f.near = make([]denseBlock, len(p.near))
	matrix.ParallelItems(workers, len(p.near), func(bi int) {
		rows, cols := p.near[bi][0].Segs, p.near[bi][1].Segs
		n := len(cols)
		v := make([]float64, len(rows)*n)
		for a, i := range rows {
			for c, j := range cols {
				v[a*n+c] = entry(i, j)
			}
		}
		f.near[bi] = denseBlock{rows: rows, cols: cols, v: v}
	})
}

// nearStats starts an operator's summary from its dense part: block
// counts, dense storage and the kernel evaluations the dense fill made
// (a diagonal block evaluates its upper triangle, a near block all of
// it), plus the builder's farEvals sampled into the far field.
func (f *nearField) nearStats(farEvals int) CompressStats {
	st := CompressStats{
		N:                  f.n,
		DiagBlocks:         len(f.diag),
		NearBlocks:         len(f.near),
		DenseFloats:        f.n * f.n,
		FarKernelEvals:     farEvals,
		DenseKernelEntries: f.n * (f.n + 1) / 2,
	}
	for _, b := range f.diag {
		st.StoredFloats += len(b.v)
		st.NearKernelEvals += len(b.rows) * (len(b.rows) + 1) / 2
	}
	for _, b := range f.near {
		st.StoredFloats += len(b.v)
		st.NearKernelEvals += len(b.v)
	}
	st.KernelEvals = st.NearKernelEvals + st.FarKernelEvals
	return st
}

// level returns the summary row of cluster-tree depth l.
func (st *CompressStats) level(l int) *LevelStats {
	for len(st.Levels) <= l {
		st.Levels = append(st.Levels, LevelStats{Level: len(st.Levels)})
	}
	return &st.Levels[l]
}

// addFar records one low-rank far block (ACA factors or a nested-basis
// coupling) of the given rank and stored floats, anchored at level.
// The averages hold rank sums until finish.
func (st *CompressStats) addFar(level, rank, floats int) {
	ls := st.level(level)
	if ls.FarBlocks == 0 || rank < ls.MinRank {
		ls.MinRank = rank
	}
	ls.MaxRank = max(ls.MaxRank, rank)
	ls.FarBlocks++
	ls.AvgRank += float64(rank)
	st.FarBlocks++
	st.MaxRank = max(st.MaxRank, rank)
	st.AvgRank += float64(rank)
	st.StoredFloats += floats
}

// finish turns the rank sums into averages and drops the levels that
// anchor neither a far block nor a basis.
func (st *CompressStats) finish() {
	if st.FarBlocks > 0 {
		st.AvgRank /= float64(st.FarBlocks)
	}
	levels := make([]LevelStats, 0, len(st.Levels))
	for _, ls := range st.Levels {
		if ls.FarBlocks == 0 && ls.Bases == 0 {
			continue
		}
		if ls.FarBlocks > 0 {
			ls.AvgRank /= float64(ls.FarBlocks)
		}
		levels = append(levels, ls)
	}
	st.Levels = levels
}
