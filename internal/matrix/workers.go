package matrix

import (
	"runtime"
	"sync"
)

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

// ParallelRangeWorkers splits [0, n) into one contiguous chunk per
// worker and runs fn on each chunk, blocking until all complete. Chunks
// smaller than minChunk are not worth a goroutine: the worker count is
// capped at n/minChunk, and with one worker (or tiny n) fn runs inline.
// fn must write only to locations owned by its chunk. workers <= 0
// falls back to the process default (Workers). Chunk boundaries depend
// only on (workers, n, minChunk) and each output location is written by
// exactly one goroutine, so results are bit-identical at every worker
// count.
func ParallelRangeWorkers(workers, n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := rangeWorkers(workers, n, minChunk)
	if w <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
