package matrix

import (
	"slices"
	"sync/atomic"
	"testing"
)

// refChunks is the contiguous-chunk rule the fan-out callers used
// before they shared RangeChunks: min(workers, n, n/minChunk) chunks of
// ceil(n/w) indices, one chunk when that count is below two, none for
// n = 0.
func refChunks(workers, n, minChunk int) [][2]int {
	if n <= 0 {
		return nil
	}
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
	if w <= 1 {
		return [][2]int{{0, n}}
	}
	chunk := (n + w - 1) / w
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		out = append(out, [2]int{lo, min(lo+chunk, n)})
	}
	return out
}

// TestParallelPrimitives is the scheduling contract of the fan-out
// layer: both primitives visit every index exactly once at any worker
// count (n = 0, workers > n and workers <= 0 included), and the chunk
// boundaries follow the contiguous-chunk rule above — the iterative
// sweep's warm-start chunks (minChunk 1) and csrMul's (minChunk 256)
// among them.
func TestParallelPrimitives(t *testing.T) {
	for _, tc := range []struct {
		n, workers, minChunk int
		want                 [][2]int
	}{
		{0, 4, 1, nil},
		{1, 8, 1, [][2]int{{0, 1}}},
		{10, 3, 1, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{10, 4, 1, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{9, 6, 1, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 9}}},
		{10, 100, 1, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10}}},
		{1000, 4, 256, [][2]int{{0, 334}, {334, 668}, {668, 1000}}},
		{255, 4, 256, [][2]int{{0, 255}}},
		{7, -3, 8, [][2]int{{0, 7}}},
	} {
		if got := RangeChunks(tc.workers, tc.n, tc.minChunk); !slices.Equal(got, tc.want) {
			t.Errorf("RangeChunks(%d, %d, %d) = %v, want %v", tc.workers, tc.n, tc.minChunk, got, tc.want)
		}
	}
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, w := range []int{-1, 0, 1, 2, 3, 64, 2000} {
			for _, minChunk := range []int{0, 1, 8, 256} {
				got, want := RangeChunks(w, n, minChunk), refChunks(w, n, minChunk)
				if !slices.Equal(got, want) {
					t.Fatalf("RangeChunks(%d, %d, %d) = %v, want %v", w, n, minChunk, got, want)
				}
				seen := make([]atomic.Int32, n)
				var calls atomic.Int32
				ParallelRangeWorkers(w, n, minChunk, func(lo, hi int) {
					calls.Add(1)
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
				})
				if int(calls.Load()) != len(want) {
					t.Fatalf("ParallelRangeWorkers(%d, %d, %d): %d chunks, want %d", w, n, minChunk, calls.Load(), len(want))
				}
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("ParallelRangeWorkers(%d, %d, %d): index %d visited %d times", w, n, minChunk, i, c)
					}
				}
			}
			seen := make([]atomic.Int32, n)
			ParallelItems(w, n, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("ParallelItems(%d, %d): index %d visited %d times", w, n, i, c)
				}
			}
		}
	}
	// The multigrid V-cycle calls ParallelRangeWorkers in its hot loop:
	// the one-chunk path must not allocate.
	if a := testing.AllocsPerRun(20, func() { ParallelRangeWorkers(1, 100, 1, func(lo, hi int) {}) }); a != 0 {
		t.Errorf("serial ParallelRangeWorkers allocates %v times per call", a)
	}
}
