package extract

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"inductance101/internal/geom"
)

// keysInShard synthesizes n distinct kernel keys that all hash to the
// same stripe, so the CLOCK policy of a single shard can be exercised
// deterministically.
func keysInShard(n int) []kernelKey {
	var out []kernelKey
	want := -1
	for i := uint64(1); len(out) < n; i++ {
		k := kernelKey{kind: kindSelfBar}
		k.p[0] = i
		if want < 0 {
			want = k.shard()
		}
		if k.shard() == want {
			out = append(out, k)
		}
	}
	return out
}

// TestBoundedCacheEvictionDeterministic pins the CLOCK policy on one
// shard: with a two-entry budget the oldest unreferenced entry is the
// victim, and a hit's reference bit buys its entry a second chance.
func TestBoundedCacheEvictionDeterministic(t *testing.T) {
	keys := keysInShard(3)
	val := func(k kernelKey) float64 { return float64(k.p[0]) }
	lookup := func(c *KernelCache, k kernelKey) float64 {
		return c.getOrCompute(k, func() float64 { return val(k) })
	}

	// Cold inserts only: the hand evicts the oldest entry.
	c := NewBoundedCache(cacheShards * 2 * entryBytes)
	lookup(c, keys[0])
	lookup(c, keys[1])
	lookup(c, keys[2]) // evicts keys[0]
	if got := c.Stats(); got.Entries != 2 || got.Evictions != 1 {
		t.Fatalf("after 3 inserts at 2-entry budget: %+v", got)
	}
	misses := c.misses.Load()
	lookup(c, keys[1])
	lookup(c, keys[2])
	if c.misses.Load() != misses {
		t.Errorf("resident keys missed after eviction pass")
	}
	misses = c.misses.Load()
	if lookup(c, keys[0]); c.misses.Load() != misses+1 {
		t.Errorf("evicted key did not re-miss")
	}

	// Second chance: a referenced entry survives, the unreferenced
	// newer entry is reclaimed instead.
	c = NewBoundedCache(cacheShards * 2 * entryBytes)
	lookup(c, keys[0])
	lookup(c, keys[1])
	lookup(c, keys[0]) // hit: sets keys[0]'s reference bit
	lookup(c, keys[2]) // hand clears keys[0]'s bit, evicts keys[1]
	misses = c.misses.Load()
	if lookup(c, keys[0]); c.misses.Load() != misses {
		t.Errorf("referenced entry was evicted despite its second chance")
	}
	if lookup(c, keys[1]); c.misses.Load() != misses+1 {
		t.Errorf("unreferenced entry survived over the referenced one")
	}

	// Eviction must never change values: every lookup above returned
	// the recomputed bits.
	for _, k := range keys {
		if got := lookup(c, k); got != val(k) {
			t.Fatalf("key %d: got %g want %g", k.p[0], got, val(k))
		}
	}
}

// TestBoundedCacheByteAccounting drives concurrent inserts and
// evictions through a small cap while a sampler asserts the accounted
// footprint stays under the cap, and checks the final accounting is
// exact: Bytes == Entries*entryBytes and entries never exceed the
// budget.
func TestBoundedCacheByteAccounting(t *testing.T) {
	const capBytes = cacheShards * 4 * entryBytes // 4 entries per shard
	c := NewBoundedCache(capBytes)

	const goroutines = 8
	const perG = 4000
	stop := make(chan struct{})
	var samplerErr error
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := c.Stats()
			if st.Bytes > capBytes {
				samplerErr = fmt.Errorf("resident bytes %d exceed cap %d", st.Bytes, capBytes)
				return
			}
			if st.Bytes%entryBytes != 0 {
				samplerErr = fmt.Errorf("resident bytes %d not a multiple of entryBytes", st.Bytes)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Overlapping key ranges: some keys race across
				// goroutines, most churn the CLOCK rings.
				id := uint64(g*perG/2 + i)
				k := kernelKey{kind: kindMutualFilaments}
				k.p[0] = id
				want := float64(id) * 0.5
				if got := c.getOrCompute(k, func() float64 { return want }); got != want {
					t.Errorf("key %d: got %g want %g", id, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()
	if samplerErr != nil {
		t.Fatal(samplerErr)
	}

	st := c.Stats()
	if st.Bytes != int64(st.Entries)*entryBytes {
		t.Errorf("byte accounting drifted: %d entries but %d bytes", st.Entries, st.Bytes)
	}
	if st.Bytes > capBytes {
		t.Errorf("final resident bytes %d exceed cap %d", st.Bytes, capBytes)
	}
	if st.Evictions == 0 {
		t.Errorf("workload of %d distinct keys at a %d-entry cap evicted nothing", goroutines*perG, capBytes/entryBytes)
	}
	if st.Hits+st.Misses == 0 {
		t.Errorf("counters recorded no lookups")
	}
}

// TestBoundedCacheHitRateRepeatedLayout reruns the same extraction
// through a bounded cache whose cap comfortably holds the working set:
// the hit rate must match the unbounded cache exactly, and the
// extracted matrices must be bit-identical.
func TestBoundedCacheHitRateRepeatedLayout(t *testing.T) {
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	var segs []int
	for w := 0; w < 12; w++ {
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(w) * 2e-6,
			Length: 400e-6, Width: 1e-6,
			Net:   fmt.Sprintf("w%d", w),
			NodeA: fmt.Sprintf("a%d", w), NodeB: fmt.Sprintf("b%d", w),
		}))
	}

	unbounded := new(KernelCache)
	bounded := NewBoundedCache(8 << 20)
	for pass := 0; pass < 3; pass++ {
		a := InductanceMatrix(lay, segs, 0, GMDOptions{}, unbounded)
		b := InductanceMatrix(lay, segs, 0, GMDOptions{}, bounded)
		for i := 0; i < len(segs); i++ {
			for j := 0; j < len(segs); j++ {
				if av, bv := a.At(i, j), b.At(i, j); math.Float64bits(av) != math.Float64bits(bv) {
					t.Fatalf("pass %d: L[%d,%d] differs: %g vs %g", pass, i, j, av, bv)
				}
			}
		}
	}
	su, sb := unbounded.Stats(), bounded.Stats()
	if su.Hits != sb.Hits || su.Misses != sb.Misses {
		t.Errorf("bounded cache hit rate degraded on repeated layout: unbounded %d/%d, bounded %d/%d",
			su.Hits, su.Misses, sb.Hits, sb.Misses)
	}
	if sb.Evictions != 0 {
		t.Errorf("cap holding the working set still evicted %d entries", sb.Evictions)
	}
	if sb.Bytes != int64(sb.Entries)*entryBytes {
		t.Errorf("byte accounting drifted: %d entries but %d bytes", sb.Entries, sb.Bytes)
	}
}

// TestCacheCapacityEdgeCases covers shrinking an over-full cache, caps
// too small to give every shard a budget, and removing the bound.
func TestCacheCapacityEdgeCases(t *testing.T) {
	c := new(KernelCache) // unbounded
	for i := uint64(1); i <= 500; i++ {
		k := kernelKey{kind: kindCouplingCapPerLen}
		k.p[0] = i
		c.getOrCompute(k, func() float64 { return float64(i) })
	}
	if st := c.Stats(); st.Entries != 500 || st.CapBytes != 0 {
		t.Fatalf("unbounded fill: %+v", st)
	}

	// Shrinking trims immediately.
	const cap2 = cacheShards * 2 * entryBytes
	c.SetCapacity(cap2)
	st := c.Stats()
	if st.Bytes > cap2 {
		t.Errorf("SetCapacity did not trim: %d bytes over cap %d", st.Bytes, cap2)
	}
	if st.Evictions == 0 {
		t.Errorf("trim recorded no evictions")
	}
	if st.Bytes != int64(st.Entries)*entryBytes {
		t.Errorf("byte accounting drifted after trim: %+v", st)
	}

	// A cap below one entry per shard leaves no budget: lookups still
	// return exact values but store nothing new.
	c.SetCapacity(entryBytes / 2)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("sub-shard cap retained %d entries", st.Entries)
	}
	k := kernelKey{kind: kindCouplingCapPerLen}
	k.p[0] = 10001
	if got := c.getOrCompute(k, func() float64 { return 42 }); got != 42 {
		t.Fatalf("budgetless lookup returned %g", got)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("budgetless shard stored an entry")
	}

	// Removing the bound restores normal memoization.
	c.SetCapacity(0)
	c.getOrCompute(k, func() float64 { return 42 })
	if got := c.getOrCompute(k, func() float64 { t.Error("recomputed after unbound"); return 42 }); got != 42 {
		t.Fatalf("unbound lookup returned %g", got)
	}
}
