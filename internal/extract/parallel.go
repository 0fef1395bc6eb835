package extract

import (
	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// InductanceMatrixParallel is InductanceMatrix with the row loop spread
// across CPUs. The partial-inductance matrix dominates extraction time
// on large layouts (the paper's 10^5-segment nets imply 10^10 pair
// evaluations); rows are independent, so this parallelizes perfectly.
// workers <= 0 uses GOMAXPROCS. The result is bit-identical to the
// serial version — each entry is computed exactly once by one goroutine.
//
// Work is handed out as interleaved strides: stride u covers rows
// u, u+U, u+2U, ... for U total strides. Row i does n-i pair
// evaluations (the loop only fills j > i), so contiguous chunks would
// make the first worker's chunk several times more expensive than the
// last one's; interleaving gives every stride the same mix of cheap and
// expensive rows. Strides are the items of matrix.ParallelItems, claimed
// one at a time from its atomic counter.
func InductanceMatrixParallel(l *geom.Layout, segs []int, window float64, opt GMDOptions, workers int) *matrix.Dense {
	n := len(segs)
	if workers <= 0 {
		workers = matrix.Workers()
	}
	if workers <= 1 || n <= 1 {
		return InductanceMatrix(l, segs, window, opt)
	}
	m := matrix.NewDense(n, n)
	pairs := pairCandidates(l, segs, window)
	// A few strides per worker keeps the tail balanced even if one
	// stride stalls (e.g. a worker descheduled by the OS).
	numUnits := min(4*workers, n)
	matrix.ParallelItems(workers, numUnits, func(u int) {
		for i := u; i < n; i += numUnits {
			fillInductanceRow(l, segs, window, opt, m, i, pairs)
		}
	})
	return m
}
