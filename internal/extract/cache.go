package extract

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"inductance101/internal/geom"
)

// Geometry-keyed kernel cache.
//
// On the regular structures the paper's experiments run on (buses,
// power grids, H-trees) most parallel segment pairs are translates of a
// handful of unique relative geometries: the mutual-inductance and
// coupling-capacitance kernels depend only on lengths, cross-sections
// and relative offsets, never on absolute position. The cache
// canonicalizes each kernel evaluation into a translation-invariant key
// and memoizes the exact computed value in a sharded, lock-striped
// concurrent map, so repeated geometries are evaluated once per cache
// instead of once per pair.
//
// Exactness: the key is the full IEEE-754 bit pattern of every kernel
// input (quantization at full float64 resolution — the finest grid that
// cannot merge two distinct geometries). Two pairs share a cache entry
// only when the kernel would receive bit-identical arguments, and the
// stored value is the kernel's exact output, so cached and uncached
// extraction results are bit-identical. Layouts generated on a layout
// grid (coordinates that are integer multiples of a pitch) produce
// bit-identical coordinate differences for translated pairs, which is
// what makes the hit rate high in practice. A coarser key quantum would
// raise the hit rate further but break exactness, so it is deliberately
// not offered.

// cacheShards is the number of lock stripes; a power of two so shard
// selection is a mask. 64 stripes keep contention negligible at any
// realistic GOMAXPROCS.
const cacheShards = 64

// kernelKind discriminates the memoized kernel families sharing one map.
type kernelKind uint8

const (
	kindSelfBar kernelKind = iota + 1
	kindMutualFilaments
	kindMutualBars
	kindCouplingCapPerLen
)

// kernelKey is the canonical, translation-invariant identity of one
// kernel evaluation: the kind plus the raw bit patterns of up to nine
// float64 arguments (unused slots stay zero). Comparable, so it can key
// a Go map directly.
type kernelKey struct {
	kind kernelKind
	p    [9]uint64
}

// fbits returns the canonical bit pattern of v for keying: -0.0 is
// folded into +0.0 (the kernels cannot distinguish them).
func fbits(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	return math.Float64bits(v)
}

// shard hashes the key FNV-1a style onto a stripe.
func (k kernelKey) shard() int {
	h := uint64(k.kind) ^ 0xcbf29ce484222325
	for _, v := range k.p {
		h ^= v
		h *= 0x100000001b3
	}
	// Fold the high bits in so shard choice sees the whole hash.
	return int((h ^ h>>32) & (cacheShards - 1))
}

// cacheEntry is one resident kernel value plus its CLOCK reference
// bit. The bit is set atomically on hits (under the shard read lock)
// and inspected/cleared by the evictor (under the shard write lock), so
// hits never upgrade to the write lock.
type cacheEntry struct {
	val float64
	ref atomic.Bool
}

// entryBytes is the accounted footprint of one resident entry: the
// 80-byte key stored twice (map key + CLOCK ring slot), the boxed
// entry, the map's pointer value, and amortized map-bucket overhead.
// A deliberately conservative flat constant so the byte accounting is
// exact and deterministic: resident bytes == entries * entryBytes.
const entryBytes = 256

type cacheShard struct {
	mu    sync.RWMutex
	m     map[kernelKey]*cacheEntry
	ring  []kernelKey // CLOCK ring over resident keys
	hand  int
	bytes int64
}

// evictOne runs the CLOCK hand until it finds an entry with a clear
// reference bit and evicts it. Called with the shard write lock held
// and at least one resident entry.
func (sh *cacheShard) evictOne(evictions *atomic.Uint64) {
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		k := sh.ring[sh.hand]
		e := sh.m[k]
		if e.ref.Load() {
			// Second chance: clear the bit, advance the hand.
			e.ref.Store(false)
			sh.hand++
			continue
		}
		delete(sh.m, k)
		last := len(sh.ring) - 1
		sh.ring[sh.hand] = sh.ring[last]
		sh.ring = sh.ring[:last]
		sh.bytes -= entryBytes
		evictions.Add(1)
		return
	}
}

// trim evicts until the shard holds at most maxEntries entries
// (maxEntries < 0 means unbounded). Called with the write lock held.
func (sh *cacheShard) trim(maxEntries int, evictions *atomic.Uint64) {
	if maxEntries < 0 {
		return
	}
	for len(sh.m) > maxEntries {
		sh.evictOne(evictions)
	}
}

// KernelCache is a sharded memo table for the pure geometry kernels.
// The zero value is ready to use and unbounded. All methods are safe
// for concurrent use; two goroutines racing on the same missing key
// both compute the (deterministic) value and store identical results.
// A nil *KernelCache memoizes nothing: every kernel method, Stats and
// Reset accept a nil receiver, and the kernels are computed directly.
//
// A cache that lives in a long-running process sets a byte capacity
// (SetCapacity / NewBoundedCache): resident entries are then evicted
// with a sharded CLOCK policy (each insert over budget gives every
// resident entry a second chance before reclaiming it), so the cache's
// accounted footprint never exceeds the cap. Eviction only discards
// memoized values — a re-miss recomputes the exact same bits — so
// bounded and unbounded caches stay bit-identical in results.
type KernelCache struct {
	shards    [cacheShards]cacheShard
	capBytes  atomic.Int64 // 0 = unbounded
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewBoundedCache returns a fresh cache capped at capBytes of accounted
// entry footprint (<= 0 means unbounded).
func NewBoundedCache(capBytes int64) *KernelCache {
	c := new(KernelCache)
	c.SetCapacity(capBytes)
	return c
}

// SetCapacity bounds the cache's accounted resident footprint to
// capBytes (<= 0 removes the bound). Shrinking trims each shard to the
// new budget immediately. The budget is split evenly across the 64
// shards, so caps below 64*entryBytes (16 KiB) leave some shards with
// no budget at all; such shards stop memoizing rather than thrash.
func (c *KernelCache) SetCapacity(capBytes int64) {
	if capBytes < 0 {
		capBytes = 0
	}
	c.capBytes.Store(capBytes)
	max := c.shardMaxEntries()
	if max < 0 {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.trim(max, &c.evictions)
		sh.mu.Unlock()
	}
}

// Capacity returns the byte cap (0 = unbounded).
func (c *KernelCache) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.capBytes.Load()
}

// shardMaxEntries converts the byte cap into a per-shard entry budget:
// -1 for unbounded, otherwise floor(cap/shards/entryBytes).
func (c *KernelCache) shardMaxEntries() int {
	cap := c.capBytes.Load()
	if cap <= 0 {
		return -1
	}
	return int(cap / cacheShards / entryBytes)
}

// getOrCompute returns the cached value for k, computing and storing it
// on a miss (evicting first if the shard is at its budget).
func (c *KernelCache) getOrCompute(k kernelKey, compute func() float64) float64 {
	sh := &c.shards[k.shard()]
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		e.ref.Store(true)
		c.hits.Add(1)
		return e.val
	}
	c.misses.Add(1)
	v := compute()
	max := c.shardMaxEntries()
	if max == 0 {
		// No per-shard budget at this cap: stay a pure pass-through.
		return v
	}
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		// A racing goroutine stored the (identical) value first.
		sh.mu.Unlock()
		return e.val
	}
	if sh.m == nil {
		sh.m = make(map[kernelKey]*cacheEntry)
	}
	if max > 0 {
		sh.trim(max-1, &c.evictions)
	}
	sh.m[k] = &cacheEntry{val: v}
	sh.ring = append(sh.ring, k)
	sh.bytes += entryBytes
	sh.mu.Unlock()
	return v
}

// entries counts the stored values across shards.
func (c *KernelCache) entries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// residentBytes sums the accounted footprint across shards.
func (c *KernelCache) residentBytes() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += sh.bytes
		sh.mu.RUnlock()
	}
	return n
}

// CacheStats is a snapshot of the kernel cache counters.
type CacheStats struct {
	Enabled bool
	Hits    uint64
	Misses  uint64
	Entries int
	// Bytes is the accounted resident footprint (Entries * entryBytes);
	// it never exceeds CapBytes when a cap is set.
	Bytes int64
	// CapBytes is the byte capacity (0 = unbounded).
	CapBytes int64
	// Evictions counts entries reclaimed by the CLOCK policy.
	Evictions uint64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// String formats the counters as the CLIs' one-line -v report.
func (s CacheStats) String() string {
	if !s.Enabled {
		return "kernel cache: off"
	}
	return fmt.Sprintf("kernel cache: %d hits, %d misses (%.1f%% hit rate), %d entries",
		s.Hits, s.Misses, 100*s.HitRate(), s.Entries)
}

// Stats snapshots this cache's counters. A nil receiver (no
// memoization) reports Enabled=false.
func (c *KernelCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:   true,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   c.entries(),
		Bytes:     c.residentBytes(),
		CapBytes:  c.capBytes.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Reset drops every memoized value and zeroes the counters (the byte
// capacity is retained). No-op on a nil receiver.
func (c *KernelCache) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.ring = nil
		sh.hand = 0
		sh.bytes = 0
		sh.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// SelfInductanceBar evaluates the self-inductance kernel through the
// cache: bit-identical to the direct call, computed once per unique
// (l, w, t). A nil receiver computes directly.
func (c *KernelCache) SelfInductanceBar(l, w, t float64) float64 {
	if c == nil {
		return SelfInductanceBar(l, w, t)
	}
	k := kernelKey{kind: kindSelfBar}
	k.p[0], k.p[1], k.p[2] = fbits(l), fbits(w), fbits(t)
	return c.getOrCompute(k, func() float64 {
		return SelfInductanceBar(l, w, t)
	})
}

// MutualFilaments evaluates the filament mutual-inductance kernel
// through the cache — the memo the FastHenry-style filament-matrix
// assembly uses, where a regular discretization repeats the same
// relative filament geometry thousands of times.
func (c *KernelCache) MutualFilaments(la, lb, s, d float64) float64 {
	if c == nil {
		return MutualFilaments(la, lb, s, d)
	}
	k := kernelKey{kind: kindMutualFilaments}
	k.p[0], k.p[1], k.p[2], k.p[3] = fbits(la), fbits(lb), fbits(s), fbits(d)
	return c.getOrCompute(k, func() float64 {
		return MutualFilaments(la, lb, s, d)
	})
}

// MutualBars evaluates the bar mutual-inductance kernel through the
// cache. The key is the pair's translation-invariant relative geometry
// (lengths, longitudinal offset, perpendicular distance, both
// cross-sections) plus the GMD options that steer the evaluation.
// GMDOptions.Order is not part of the key because NumericGMD's
// quadrature order is fixed (see the gauss6 tables); if it ever becomes
// configurable it must join the key.
func (c *KernelCache) MutualBars(pg geom.ParallelGeometry, wa, ta, wb, tb float64, opt GMDOptions) float64 {
	if c == nil {
		return MutualBars(pg, wa, ta, wb, tb, opt)
	}
	k := kernelKey{kind: kindMutualBars}
	k.p[0], k.p[1], k.p[2], k.p[3] = fbits(pg.La), fbits(pg.Lb), fbits(pg.S), fbits(pg.D)
	k.p[4], k.p[5], k.p[6], k.p[7] = fbits(wa), fbits(ta), fbits(wb), fbits(tb)
	if opt.Numeric {
		ratio := opt.NumericRatio
		if ratio <= 0 {
			ratio = 3 // MutualBars' own default; canonicalize so 0 and 3 share entries
		}
		k.p[8] = fbits(ratio)
	}
	return c.getOrCompute(k, func() float64 {
		return MutualBars(pg, wa, ta, wb, tb, opt)
	})
}

// couplingCapPerLength memoizes CouplingCapPerLength; the two math.Pow
// calls dominate coupling-capacitance extraction on large regular
// layouts.
func (c *KernelCache) couplingCapPerLength(w, t, h, s float64) float64 {
	if c == nil {
		return CouplingCapPerLength(w, t, h, s)
	}
	k := kernelKey{kind: kindCouplingCapPerLen}
	k.p[0], k.p[1], k.p[2], k.p[3] = fbits(w), fbits(t), fbits(h), fbits(s)
	return c.getOrCompute(k, func() float64 {
		return CouplingCapPerLength(w, t, h, s)
	})
}
