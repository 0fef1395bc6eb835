package extract

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// TestInductanceMatrixParallelMatchesSerial asserts the parallel
// assembly bit-identical to the serial one on a regular bus and on a
// random two-direction layout, at every window, GMD setting and worker
// count.
func TestInductanceMatrixParallelMatchesSerial(t *testing.T) {
	bus := makeBusLayout(8, 600e-6, 1.5e-6, 3e-6)
	busSegs := make([]int, 8)
	for i := range busSegs {
		busSegs[i] = i
	}
	rl, rsegs := randomLayout(rand.New(rand.NewSource(7)), 40)
	layouts := []struct {
		name string
		l    *geom.Layout
		segs []int
	}{{"bus8", bus, busSegs}, {"random40", rl, rsegs}}
	for _, lc := range layouts {
		for _, w := range []float64{math.Inf(1), 4e-6, 60e-6} {
			for _, g := range []GMDOptions{{}, {Numeric: true}, {Numeric: true, NumericRatio: 8}} {
				serial := InductanceMatrix(lc.l, lc.segs, w, g)
				for _, workers := range []int{0, 1, 2, 7, 32} {
					par := InductanceMatrixParallel(lc.l, lc.segs, w, g, workers)
					requireBitIdentical(t, serial, par, fmt.Sprintf("%s window=%g gmd=%+v workers=%d", lc.name, w, g, workers))
				}
			}
		}
	}
}

// TestConcurrentAssemblyDeterministic runs several parallel assemblies
// over different layouts at once — the race-detector target ci.sh runs
// with -race. Results must match the serial reference exactly.
func TestConcurrentAssemblyDeterministic(t *testing.T) {
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
		jobs[k].ref = InductanceMatrix(jobs[k].l, jobs[k].segs, math.Inf(1), GMDOptions{Numeric: true})
	}
	var wg sync.WaitGroup
	results := make([]*matrix.Dense, len(jobs))
	for k := range jobs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k] = InductanceMatrixParallel(jobs[k].l, jobs[k].segs, math.Inf(1), GMDOptions{Numeric: true}, 3)
		}(k)
	}
	wg.Wait()
	for k := range jobs {
		requireBitIdentical(t, jobs[k].ref, results[k], "concurrent job")
	}
}
