package geom

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func clusterTestLayout(rng *rand.Rand, nSegs int) (*Layout, []int) {
	l := NewLayout([]Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.025, HBelow: 1e-6},
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1e-6},
	})
	segs := make([]int, nSegs)
	for i := range segs {
		dir := DirX
		if rng.Intn(2) == 1 {
			dir = DirY
		}
		segs[i] = l.AddSegment(Segment{
			Layer: rng.Intn(2), Dir: dir,
			X0: rng.Float64() * 300e-6, Y0: rng.Float64() * 300e-6,
			Length: 20e-6 + rng.Float64()*200e-6,
			Width:  0.5e-6 + rng.Float64()*2e-6,
			Net:    "n", NodeA: "a", NodeB: "b",
		})
	}
	return l, segs
}

// clusterLayout clusters every segment of l through ClusterItems, with
// the bisection coordinates of a segment: its centre along the routing
// axis, its cross coordinate and its layer height. The test layouts
// number their segments from 0, so element indices are segment indices.
func clusterLayout(l *Layout, leafSize, workers int) []*ClusterNode {
	dir := func(i int) Direction { return l.Segments[i].Dir }
	coord := func(dim, i int) float64 {
		s := &l.Segments[i]
		switch dim {
		case 0:
			lo, hi := s.AxisSpan()
			return (lo + hi) / 2
		case 1:
			return s.CrossCoord()
		default:
			return l.Z(i)
		}
	}
	return ClusterItems(len(l.Segments), dir, coord, leafSize, workers)
}

// collectLeaves gathers leaf segment lists depth-first.
func collectLeaves(n *ClusterNode, out *[][]int) {
	if n.IsLeaf() {
		*out = append(*out, n.Segs)
		return
	}
	collectLeaves(n.Left, out)
	collectLeaves(n.Right, out)
}

func TestClusterTreePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l, segs := clusterTestLayout(rng, 97)
	leafSize := 8
	roots := clusterLayout(l, leafSize, 1)
	if len(roots) == 0 {
		t.Fatal("no roots")
	}
	var all []int
	for _, r := range roots {
		// Every root holds segments of a single direction.
		d := l.Segments[r.Segs[0]].Dir
		for _, si := range r.Segs {
			if l.Segments[si].Dir != d {
				t.Fatalf("root mixes directions")
			}
		}
		var leaves [][]int
		collectLeaves(r, &leaves)
		for _, leaf := range leaves {
			if len(leaf) == 0 || len(leaf) > leafSize {
				t.Fatalf("leaf size %d outside (0, %d]", len(leaf), leafSize)
			}
			all = append(all, leaf...)
		}
		// Internal consistency: a node's Segs is the concatenation of
		// its children's, entry by entry.
		var walk func(n *ClusterNode)
		walk = func(n *ClusterNode) {
			if n.IsLeaf() {
				return
			}
			cat := append(append([]int(nil), n.Left.Segs...), n.Right.Segs...)
			if len(cat) != len(n.Segs) {
				t.Fatalf("node split %d+%d != %d",
					len(n.Left.Segs), len(n.Right.Segs), len(n.Segs))
			}
			for i := range cat {
				if cat[i] != n.Segs[i] {
					t.Fatalf("level %d node: Segs[%d] = %d, children's concatenation holds %d",
						n.Level, i, n.Segs[i], cat[i])
				}
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(r)
	}
	// The leaves partition the input exactly.
	sort.Ints(all)
	want := append([]int(nil), segs...)
	sort.Ints(want)
	if len(all) != len(want) {
		t.Fatalf("leaves hold %d segments, want %d", len(all), len(want))
	}
	for i := range all {
		if all[i] != want[i] {
			t.Fatalf("leaf segments differ from input at %d: %d vs %d", i, all[i], want[i])
		}
	}
}

func TestClusterTreeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	l, _ := clusterTestLayout(rng, 50)
	a := clusterLayout(l, 6, 1)
	b := clusterLayout(l, 6, 1)
	var eq func(x, y *ClusterNode) bool
	eq = func(x, y *ClusterNode) bool {
		if len(x.Segs) != len(y.Segs) {
			return false
		}
		for i := range x.Segs {
			if x.Segs[i] != y.Segs[i] {
				return false
			}
		}
		if x.IsLeaf() != y.IsLeaf() {
			return false
		}
		if x.IsLeaf() {
			return true
		}
		return eq(x.Left, y.Left) && eq(x.Right, y.Right)
	}
	if len(a) != len(b) {
		t.Fatal("root counts differ between identical builds")
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			t.Fatal("cluster tree not deterministic")
		}
	}
}

// treesEqual compares shape, order and levels.
func treesEqual(x, y *ClusterNode) bool {
	if len(x.Segs) != len(y.Segs) || x.Level != y.Level || x.IsLeaf() != y.IsLeaf() {
		return false
	}
	for i := range x.Segs {
		if x.Segs[i] != y.Segs[i] {
			return false
		}
	}
	if x.IsLeaf() {
		return true
	}
	return treesEqual(x.Left, y.Left) && treesEqual(x.Right, y.Right)
}

// TestClusterTreeParallelDeterministic: the parallel build must produce
// a tree bit-identical to the serial one at every worker count, with
// correct levels.
func TestClusterTreeParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	l, _ := clusterTestLayout(rng, 300)
	serial := clusterLayout(l, 5, 1)
	var checkLevels func(n *ClusterNode, lvl int)
	checkLevels = func(n *ClusterNode, lvl int) {
		if n.Level != lvl {
			t.Fatalf("node level %d, want %d", n.Level, lvl)
		}
		if !n.IsLeaf() {
			checkLevels(n.Left, lvl+1)
			checkLevels(n.Right, lvl+1)
		}
	}
	for _, r := range serial {
		checkLevels(r, 0)
	}
	for _, workers := range []int{2, 4, 16, 0} {
		par := clusterLayout(l, 5, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d roots, serial %d", workers, len(par), len(serial))
		}
		for i := range par {
			if !treesEqual(par[i], serial[i]) {
				t.Fatalf("workers=%d: tree differs from serial build", workers)
			}
		}
	}
}

// TestClusterTreeConcurrentBuilds is the geom race-set target: several
// goroutines build parallel trees over the same layout at once (exactly
// what concurrent engine sessions do through the operator builds), and
// inside each build the bisection sorts disjoint ranges of one buffer
// from different goroutines.
func TestClusterTreeConcurrentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l, _ := clusterTestLayout(rng, 200)
	want := clusterLayout(l, 7, 1)
	results := make([][]*ClusterNode, 4)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = clusterLayout(l, 7, 4)
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if len(got) != len(want) {
			t.Fatalf("build %d: root count %d, want %d", g, len(got), len(want))
		}
		for i := range got {
			if !treesEqual(got[i], want[i]) {
				t.Fatalf("build %d: tree differs from serial build", g)
			}
		}
	}
}

// TestClusterTreeSmallInputs: a default leaf size leaves a tiny input
// as leaf roots, and an empty input yields no roots.
func TestClusterTreeSmallInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	l, _ := clusterTestLayout(rng, 3)
	// leafSize < 1 defaults; a tiny input yields leaf roots.
	roots := clusterLayout(l, 0, 1)
	total := 0
	for _, r := range roots {
		if !r.IsLeaf() {
			t.Fatal("3 segments with default leaf size must be leaves")
		}
		total += len(r.Segs)
	}
	if total != 3 {
		t.Fatalf("roots hold %d segments, want 3", total)
	}
	if got := clusterLayout(NewLayout(nil), 4, 1); len(got) != 0 {
		t.Fatalf("empty input produced %d roots", len(got))
	}
}
