package matrix

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the program's one fan-out layer. Every parallel loop
// goes through one of two scheduling rules:
//
//   - contiguous chunks (ParallelRangeWorkers, RangeChunks), for work
//     whose cost is even per index or that must visit indices in
//     order within a worker;
//   - per-item handout (ParallelItems), an atomic counter that
//     balances items of uneven cost.
//
// Under either rule each index is visited by exactly one goroutine, so
// a caller that writes only its own indices' outputs gets the same bits
// at every worker count.

// Workers reports the default kernel parallelism, GOMAXPROCS: the
// worker count every *Workers entry point and option struct resolves a
// zero to. Every parallel kernel in this package partitions work so
// that each output element is computed by exactly one goroutine with
// the same per-element operation order as the serial reference kernel,
// so results are bit-identical at every worker count.
func Workers() int { return runtime.GOMAXPROCS(0) }

// rangeWorkers is the goroutine count ParallelRangeWorkers splits n
// items into. Hot kernels test it for <= 1 and run their loop inline:
// a closure handed to ParallelRangeWorkers is heap-allocated, so the
// check keeps serial solves allocation-free.
func rangeWorkers(workers, n, minChunk int) int {
	w := workers
	if w <= 0 {
		w = Workers()
	}
	if minChunk > 0 && w > n/minChunk {
		w = n / minChunk
	}
	if w > n {
		w = n
	}
	return w
}

// RangeChunks returns the contiguous chunks ParallelRangeWorkers splits
// [0, n) into, in ascending order, for callers that keep per-chunk state
// (a chunk's output buffer, a warm start carried along the chunk): run
// them with ParallelItems(len(chunks), len(chunks), ...) so each chunk
// gets its own goroutine.
func RangeChunks(workers, n, minChunk int) [][2]int {
	if n <= 0 {
		return nil
	}
	w := max(rangeWorkers(workers, n, minChunk), 1)
	size := (n + w - 1) / w
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// ParallelRangeWorkers splits [0, n) into one contiguous chunk per
// worker and runs fn on each chunk, blocking until all complete. Chunks
// smaller than minChunk are not worth a goroutine: the worker count is
// capped at n/minChunk, and with one worker (or tiny n) fn runs inline
// without allocating. fn must write only to locations owned by its
// chunk. workers <= 0 falls back to the process default (Workers).
// Chunk boundaries depend only on (workers, n, minChunk) and each output
// location is written by exactly one goroutine, so results are
// bit-identical at every worker count.
func ParallelRangeWorkers(workers, n, minChunk int, fn func(lo, hi int)) {
	if rangeWorkers(workers, n, minChunk) <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunks := RangeChunks(workers, n, minChunk)
	ParallelItems(len(chunks), len(chunks), func(c int) {
		fn(chunks[c][0], chunks[c][1])
	})
}

// ParallelItems runs fn(i) for every i in [0, n) over up to workers
// goroutines that claim single indices from an atomic counter, in
// ascending order, and blocks until all are done. Fine-grained claiming
// balances items whose costs differ widely (a top-level far block
// against a leaf block). workers <= 0 means the process default
// (Workers); with one worker fn runs inline.
func ParallelItems(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = Workers()
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
