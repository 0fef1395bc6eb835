package geom

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// ClusterNode is one node of a spatial cluster tree over directed
// elements — layout segments, or the filaments the mesh lowering
// produces from segments and planes: a binary tree built by recursive
// median bisection, used by the hierarchically compressed
// partial-inductance operators in internal/extract to group conductors
// into near (dense) and well-separated (low-rank) interaction blocks.
type ClusterNode struct {
	// Segs lists the element indices of this subtree (segment indices
	// for Index.ClusterTreeParallel, caller-defined element indices for
	// ClusterItems), in the deterministic order produced by the
	// bisection sorts.
	Segs []int
	// Left and Right are the two halves (nil for leaves).
	Left, Right *ClusterNode
	// Level is the node's depth below its root (roots are level 0).
	// The nested-basis operator groups its bottom-up basis construction
	// and its per-level rank statistics by this depth.
	Level int
}

// IsLeaf reports whether the node has no children.
func (c *ClusterNode) IsLeaf() bool { return c.Left == nil }

// ClusterTreeParallel builds spatial cluster trees over the given
// segments, one root per routing direction present (mutual inductance
// couples only same-direction segments, so cross-direction blocks are
// identically zero and never need a shared subtree). Each tree is
// grown by recursive bisection: the node's segments are sorted along
// the widest of the three spreads — position along the routing axis,
// cross coordinate, and layer height z — and split at the median, until
// a node holds at most leafSize segments (leafSize < 1 means 16).
//
// The split coordinates come from the same layout geometry the index
// was built over; ties are broken by segment index. The bisection fans
// out over up to workers goroutines: after each median split the left
// half is handed to another goroutine when one is free. workers <= 0
// uses GOMAXPROCS. The tree is a pure function of (layout, segs,
// leafSize) — shape, order and levels are bit-identical at every worker
// count.
func (idx *Index) ClusterTreeParallel(segs []int, leafSize, workers int) []*ClusterNode {
	if leafSize < 1 {
		leafSize = 16
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	l := idx.layout
	var byDir [2][]int
	for _, si := range segs {
		d := 0
		if l.Segments[si].Dir == DirY {
			d = 1
		}
		byDir[d] = append(byDir[d], si)
	}
	// budget holds the spare goroutines; each spawned subtree takes one
	// token and returns it when done.
	budget := int64(workers - 1)
	var roots []*ClusterNode
	coord := func(dim, si int) float64 { return clusterCoord(l, dim, si) }
	for d := range byDir {
		if len(byDir[d]) == 0 {
			continue
		}
		roots = append(roots, bisect(coord, byDir[d], leafSize, 0, &budget))
	}
	return roots
}

// ClusterItems builds spatial cluster trees over n arbitrary directed
// elements, one root per routing direction present — the element-level
// twin of Index.ClusterTreeParallel for geometry that is not layout
// segments (the mesh layer's filaments, lowered from segments and planes
// alike).
// dir reports an element's routing direction; coord its bisection
// coordinate per dimension (0 = centre along the routing axis, 1 =
// cross coordinate, 2 = height), mirroring clusterCoord. The same
// median bisection with the same index tie-break runs over the
// elements, so the tree is a pure deterministic function of the inputs
// at every worker count. leafSize < 1 means 16; workers <= 0 uses
// GOMAXPROCS.
func ClusterItems(n int, dir func(i int) Direction, coord func(dim, i int) float64, leafSize, workers int) []*ClusterNode {
	if leafSize < 1 {
		leafSize = 16
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var byDir [2][]int
	for i := 0; i < n; i++ {
		d := 0
		if dir(i) == DirY {
			d = 1
		}
		byDir[d] = append(byDir[d], i)
	}
	budget := int64(workers - 1)
	var roots []*ClusterNode
	for d := range byDir {
		if len(byDir[d]) == 0 {
			continue
		}
		roots = append(roots, bisect(coord, byDir[d], leafSize, 0, &budget))
	}
	return roots
}

// clusterCoord is the per-dimension sort key of the bisection: axis
// centre, cross coordinate, or layer height.
func clusterCoord(l *Layout, dim int, si int) float64 {
	s := &l.Segments[si]
	switch dim {
	case 0:
		lo, hi := s.AxisSpan()
		return (lo + hi) / 2
	case 1:
		return s.CrossCoord()
	default:
		return l.Z(si)
	}
}

// bisect recursively splits elements (all one direction) at the median
// of the widest coordinate spread, handing the left half to a spare
// worker goroutine when the budget allows.
func bisect(coord func(dim, i int) float64, segs []int, leafSize, level int, budget *int64) *ClusterNode {
	node := &ClusterNode{Segs: segs, Level: level}
	if len(segs) <= leafSize {
		return node
	}
	best, bestSpread := 0, -1.0
	for dim := 0; dim < 3; dim++ {
		lo, hi := coord(dim, segs[0]), coord(dim, segs[0])
		for _, si := range segs[1:] {
			c := coord(dim, si)
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if s := hi - lo; s > bestSpread {
			best, bestSpread = dim, s
		}
	}
	sorted := append([]int(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool {
		ci, cj := coord(best, sorted[i]), coord(best, sorted[j])
		if ci != cj {
			return ci < cj
		}
		return sorted[i] < sorted[j]
	})
	mid := len(sorted) / 2
	node.Segs = sorted
	if atomic.AddInt64(budget, -1) >= 0 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Left = bisect(coord, sorted[:mid], leafSize, level+1, budget)
			atomic.AddInt64(budget, 1)
		}()
		node.Right = bisect(coord, sorted[mid:], leafSize, level+1, budget)
		wg.Wait()
	} else {
		atomic.AddInt64(budget, 1)
		node.Left = bisect(coord, sorted[:mid], leafSize, level+1, budget)
		node.Right = bisect(coord, sorted[mid:], leafSize, level+1, budget)
	}
	return node
}
