package extract

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// randomLayout builds an irregular two-layer layout with both routing
// directions, random sizes and random offsets — the adversarial case
// for the cache (few repeated geometries) and for the spatial index
// (no grid regularity).
func randomLayout(rng *rand.Rand, nSegs int) (*geom.Layout, []int) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 0.9e-6, SheetRho: 0.025, HBelow: 1.0e-6},
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	segs := make([]int, nSegs)
	for i := range segs {
		dir := geom.DirX
		if rng.Intn(2) == 1 {
			dir = geom.DirY
		}
		segs[i] = l.AddSegment(geom.Segment{
			Layer:  rng.Intn(2),
			Dir:    dir,
			X0:     rng.Float64() * 200e-6,
			Y0:     rng.Float64() * 200e-6,
			Length: 10e-6 + rng.Float64()*150e-6,
			Width:  0.4e-6 + rng.Float64()*3e-6,
			Net:    "n",
			NodeA:  "a",
			NodeB:  "b",
		})
	}
	return l, segs
}

func requireBitIdentical(t *testing.T, want, got *matrix.Dense, label string) {
	t.Helper()
	n := want.Rows()
	if got.Rows() != n {
		t.Fatalf("%s: size %d != %d", label, got.Rows(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := want.At(i, j), got.At(i, j)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: (%d,%d) %v != %v (bits %x vs %x)",
					label, i, j, a, b, math.Float64bits(a), math.Float64bits(b))
			}
		}
	}
}

// TestCachedInductanceBitIdentical is the equivalence suite the cache's
// exactness contract rests on: cached and uncached assembly must agree
// to the last bit on regular buses (high hit rate) and random layouts
// (low hit rate), at every window, GMD setting and worker count.
func TestCachedInductanceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layouts := []struct {
		name string
		l    *geom.Layout
		segs []int
	}{}
	bus := makeBusLayout(16, 800e-6, 1e-6, 2e-6)
	busSegs := make([]int, 16)
	for i := range busSegs {
		busSegs[i] = i
	}
	layouts = append(layouts, struct {
		name string
		l    *geom.Layout
		segs []int
	}{"bus16", bus, busSegs})
	rl, rsegs := randomLayout(rng, 40)
	layouts = append(layouts, struct {
		name string
		l    *geom.Layout
		segs []int
	}{"random40", rl, rsegs})

	windows := []float64{math.Inf(1), 5e-6, 60e-6}
	gmds := []GMDOptions{{}, {Numeric: true}, {Numeric: true, NumericRatio: 8}}
	for _, lc := range layouts {
		for _, w := range windows {
			for _, g := range gmds {
				cache := new(KernelCache)
				off := InductanceMatrix(lc.l, lc.segs, w, g, nil)
				on := InductanceMatrix(lc.l, lc.segs, w, g, cache)
				par := InductanceMatrixParallel(lc.l, lc.segs, w, g, 4, cache)
				requireBitIdentical(t, off, on, lc.name+" serial")
				requireBitIdentical(t, off, par, lc.name+" parallel")
			}
		}
	}
}

// TestWindowedIndexMatchesBruteForce pins the spatial-index candidate
// path against a brute-force all-pairs windowed reference: the index
// may only prune pairs the window test would reject anyway.
func TestWindowedIndexMatchesBruteForce(t *testing.T) {
	bruteForce := func(l *geom.Layout, segs []int, window float64, opt GMDOptions) *matrix.Dense {
		n := len(segs)
		m := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			si := &l.Segments[segs[i]]
			th := l.Layers[si.Layer].Thickness
			m.Set(i, i, SelfInductanceBar(si.Length, si.Width, th))
			for j := i + 1; j < n; j++ {
				sj := &l.Segments[segs[j]]
				pg, ok := l.Parallel(segs[i], segs[j])
				if !ok || pg.D > window {
					continue
				}
				tj := l.Layers[sj.Layer].Thickness
				v := MutualBars(pg, si.Width, th, sj.Width, tj, opt)
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		l, segs := randomLayout(rng, 30)
		window := []float64{1e-6, 10e-6, 50e-6, 400e-6}[trial%4]
		ref := bruteForce(l, segs, window, GMDOptions{})
		got := InductanceMatrix(l, segs, window, GMDOptions{}, nil)
		requireBitIdentical(t, ref, got, "indexed windowed")
	}
	// Collinear far-apart segments: perpendicular distance is zero even
	// though the bounding boxes are a millimetre apart — the stretched
	// query box must still find the pair.
	l := geom.NewLayout([]geom.Layer{{Name: "M6", Thickness: 1e-6, SheetRho: 0.02, HBelow: 1e-6}})
	a := l.AddSegment(geom.Segment{Dir: geom.DirX, X0: 0, Y0: 3e-6, Length: 100e-6, Width: 1e-6, Net: "n", NodeA: "a", NodeB: "b"})
	b := l.AddSegment(geom.Segment{Dir: geom.DirX, X0: 1e-3, Y0: 0, Length: 100e-6, Width: 1e-6, Net: "n", NodeA: "c", NodeB: "d"})
	segs := []int{a, b}
	ref := bruteForce(l, segs, 5e-6, GMDOptions{})
	if ref.At(0, 1) == 0 {
		t.Fatal("test geometry broken: collinear pair should couple")
	}
	requireBitIdentical(t, ref, InductanceMatrix(l, segs, 5e-6, GMDOptions{}, nil), "collinear pair")
}

// TestCachedCouplingCapBitIdentical runs the full extraction (which
// routes coupling capacitance through the memoized per-length kernel)
// with the cache on and off.
func TestCachedCouplingCapBitIdentical(t *testing.T) {
	l := makeBusLayout(12, 600e-6, 1e-6, 2.5e-6)
	optOff, optOn := DefaultOptions(), DefaultOptions()
	optOff.Cache, optOn.Cache = nil, new(KernelCache)
	off, on := Extract(l, optOff), Extract(l, optOn)
	if len(off.CCoupling) == 0 || len(off.CCoupling) != len(on.CCoupling) {
		t.Fatalf("coupling cap count: %d vs %d", len(off.CCoupling), len(on.CCoupling))
	}
	for k := range off.CCoupling {
		a, b := off.CCoupling[k], on.CCoupling[k]
		if a.NodeA != b.NodeA || a.NodeB != b.NodeB ||
			math.Float64bits(a.C) != math.Float64bits(b.C) {
			t.Fatalf("coupling cap %d differs: %+v vs %+v", k, a, b)
		}
	}
	requireBitIdentical(t, off.L, on.L, "extract L")
}

// TestCacheStatsCounters exercises the counters inductx -v and
// rlsweep -v print, and the one-line report they print them as.
func TestCacheStatsCounters(t *testing.T) {
	l := makeBusLayout(16, 800e-6, 1e-6, 2e-6)
	segs := make([]int, 16)
	for i := range segs {
		segs[i] = i
	}
	c := new(KernelCache)
	InductanceMatrix(l, segs, math.Inf(1), GMDOptions{}, c)
	st := c.Stats()
	if !st.Enabled {
		t.Fatal("cache should report enabled")
	}
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("expected misses and entries after a cold run: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("a 16-line regular bus must hit the cache: %+v", st)
	}
	// A second identical assembly must be all hits.
	before := st
	InductanceMatrix(l, segs, math.Inf(1), GMDOptions{}, c)
	st = c.Stats()
	if st.Misses != before.Misses {
		t.Fatalf("warm rerun missed: %d -> %d misses", before.Misses, st.Misses)
	}
	if st.Hits <= before.Hits {
		t.Fatalf("warm rerun did not hit: %+v", st)
	}
	var off *KernelCache
	if st := off.Stats(); st.Enabled {
		t.Fatal("a nil cache should report disabled")
	}
	if got := off.Stats().String(); got != "kernel cache: off" {
		t.Errorf("disabled report %q", got)
	}
	want := "kernel cache: 3 hits, 1 misses (75.0% hit rate), 2 entries"
	if got := (CacheStats{Enabled: true, Hits: 3, Misses: 1, Entries: 2}).String(); got != want {
		t.Errorf("report %q, want %q", got, want)
	}
	c.Reset()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("reset did not clear counters: %+v", st)
	}
}

// TestConcurrentAssemblySharedCache hammers the sharded cache from
// several concurrent parallel assemblies over different layouts — the
// race-detector target ci.sh runs with -race. Results must match the
// serial uncached reference exactly.
func TestConcurrentAssemblySharedCache(t *testing.T) {
	type job struct {
		l    *geom.Layout
		segs []int
		ref  *matrix.Dense
	}
	rng := rand.New(rand.NewSource(3))
	jobs := make([]job, 6)
	for k := range jobs {
		var l *geom.Layout
		var segs []int
		if k%2 == 0 {
			l = makeBusLayout(12, 500e-6, 1e-6, 2e-6)
			segs = make([]int, 12)
			for i := range segs {
				segs[i] = i
			}
		} else {
			l, segs = randomLayout(rng, 24)
		}
		jobs[k] = job{l: l, segs: segs}
	}
	for k := range jobs {
		jobs[k].ref = InductanceMatrix(jobs[k].l, jobs[k].segs, math.Inf(1), GMDOptions{Numeric: true}, nil)
	}
	shared := new(KernelCache)
	var wg sync.WaitGroup
	results := make([]*matrix.Dense, len(jobs))
	for k := range jobs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k] = InductanceMatrixParallel(jobs[k].l, jobs[k].segs, math.Inf(1), GMDOptions{Numeric: true}, 3, shared)
		}(k)
	}
	wg.Wait()
	for k := range jobs {
		requireBitIdentical(t, jobs[k].ref, results[k], "concurrent job")
	}
}
