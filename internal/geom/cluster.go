package geom

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// ClusterNode is one node of a spatial cluster tree over directed
// elements — the filaments the mesh lowering produces from segments and
// planes, or one element per layout segment: a binary tree built by
// recursive median bisection, used by the hierarchically compressed
// partial-inductance operators in internal/extract to group conductors
// into near (dense) and well-separated (low-rank) interaction blocks.
type ClusterNode struct {
	// Segs lists the element indices of this subtree in tree order: a
	// non-leaf's Segs is exactly its Left's followed by its Right's, so
	// every node covers one contiguous range of its root's Segs.
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

// ClusterItems builds spatial cluster trees over n directed elements,
// one root per routing direction present (mutual inductance couples
// only same-direction elements, so cross-direction blocks are
// identically zero and never need a shared subtree). dir reports an
// element's routing direction; coord its bisection coordinate per
// dimension (0 = centre along the routing axis, 1 = cross coordinate,
// 2 = height). Each tree is grown by recursive bisection: the node's
// elements are sorted along the widest of the three spreads, ties
// broken by element index, and split at the median, until a node holds
// at most leafSize elements (leafSize < 1 means 16).
//
// The bisection fans out over up to workers goroutines: after each
// median split the left half is handed to another goroutine when one
// is free. workers <= 0 uses GOMAXPROCS. The tree is a pure function
// of (dir, coord, n, leafSize) — shape, order and levels are
// bit-identical at every worker count.
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
	// budget holds the spare goroutines; each spawned subtree takes one
	// token and returns it when done.
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

// bisect recursively splits elements (all one direction) at the median
// of the widest coordinate spread, handing the left half to a spare
// worker goroutine when the budget allows. It sorts segs in place and
// its children sort their halves of the same buffer, so when it returns
// node.Segs is the concatenation of the children's. The two halves are
// disjoint ranges, so concurrent children never share an entry.
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
	sort.Slice(segs, func(i, j int) bool {
		ci, cj := coord(best, segs[i]), coord(best, segs[j])
		if ci != cj {
			return ci < cj
		}
		return segs[i] < segs[j]
	})
	mid := len(segs) / 2
	if atomic.AddInt64(budget, -1) >= 0 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Left = bisect(coord, segs[:mid], leafSize, level+1, budget)
			atomic.AddInt64(budget, 1)
		}()
		node.Right = bisect(coord, segs[mid:], leafSize, level+1, budget)
		wg.Wait()
	} else {
		atomic.AddInt64(budget, 1)
		node.Left = bisect(coord, segs[:mid], leafSize, level+1, budget)
		node.Right = bisect(coord, segs[mid:], leafSize, level+1, budget)
	}
	return node
}
