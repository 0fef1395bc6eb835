package repro

import (
	"encoding/json"
	"os"
	"testing"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
	"inductance101/internal/matrix"
)

// bruteForceWindowed is the pre-spatial-index windowed assembly: an
// all-pairs scan that tests every pair against the window. Kept here as
// the benchmark baseline the indexed path is measured against.
func bruteForceWindowed(l *geom.Layout, segs []int, window float64, opt extract.GMDOptions) *matrix.Dense {
	n := len(segs)
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		si := &l.Segments[segs[i]]
		th := l.Layers[si.Layer].Thickness
		m.Set(i, i, extract.SelfInductanceBar(si.Length, si.Width, th))
		for j := i + 1; j < n; j++ {
			sj := &l.Segments[segs[j]]
			pg, ok := l.Parallel(segs[i], segs[j])
			if !ok || pg.D > window {
				continue
			}
			tj := l.Layers[sj.Layer].Thickness
			v := extract.MutualBars(pg, si.Width, th, sj.Width, tj, opt)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// TestBenchExtractSnapshot measures the spatial-index candidate search
// on a paper-scale 2400-segment power grid and writes
// BENCH_extract.json. Only runs when BENCH_EXTRACT=1; regenerate with
// scripts/bench_extract.sh.
func TestBenchExtractSnapshot(t *testing.T) {
	if os.Getenv("BENCH_EXTRACT") == "" {
		t.Skip("set BENCH_EXTRACT=1 to write BENCH_extract.json")
	}

	type entry struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
		Speedup float64 `json:"speedup,omitempty"`
	}
	var entries []entry
	measure := func(name string, fn func()) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		entries = append(entries, entry{Name: name, NsPerOp: ns})
		t.Logf("%-36s %14.0f ns/op", name, ns)
		return ns
	}
	speedupVs := func(refNs float64) {
		entries[len(entries)-1].Speedup = refNs / entries[len(entries)-1].NsPerOp
	}

	// A 2400-segment interleaved power grid, window-limited to one
	// pitch (the bench_sparse setup): first the old all-pairs windowed
	// scan, then the spatial-index candidate path.
	spec := grid.DefaultSpec()
	spec.NX, spec.NY = 25, 25
	gm, err := grid.BuildPowerGrid(grid.StandardLayers(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gridSegs := make([]int, len(gm.Layout.Segments))
	for i := range gridSegs {
		gridSegs[i] = i
	}
	t.Logf("grid: %d segments", len(gridSegs))

	// Pair search alone (no kernel evaluations), isolating the
	// O(n^2) -> O(n*k) effect of the spatial index on the windowed
	// interaction-list build.
	var pairSink int
	bruteScan := measure("grid2400_pairscan_bruteforce", func() {
		n := 0
		for i := 0; i < len(gridSegs); i++ {
			for j := i + 1; j < len(gridSegs); j++ {
				if pg, ok := gm.Layout.Parallel(gridSegs[i], gridSegs[j]); ok && pg.D <= spec.Pitch {
					n++
				}
			}
		}
		pairSink = n
	})
	measure("grid2400_pairscan_indexed", func() {
		idx := geom.NewIndex(gm.Layout, 0)
		n := 0
		for _, si := range gridSegs {
			for _, c := range idx.ParallelCandidates(si, spec.Pitch) {
				if c <= si {
					continue
				}
				if pg, ok := gm.Layout.Parallel(si, c); ok && pg.D <= spec.Pitch {
					n++
				}
			}
		}
		if n != pairSink {
			t.Fatalf("indexed pair scan found %d pairs, brute force %d", n, pairSink)
		}
	})
	speedupVs(bruteScan)

	gridBrute := measure("grid2400_windowed_bruteforce", func() {
		bruteForceWindowed(gm.Layout, gridSegs, spec.Pitch, extract.GMDOptions{})
	})
	measure("grid2400_windowed_indexed", func() {
		extract.InductanceMatrix(gm.Layout, gridSegs, spec.Pitch, extract.GMDOptions{})
	})
	speedupVs(gridBrute)

	out, err := json.MarshalIndent(struct {
		Note    string  `json:"note"`
		Workers int     `json:"workers"`
		Entries []entry `json:"extraction"`
	}{
		Note:    "extraction timing snapshot (spatial index); regenerate with scripts/bench_extract.sh",
		Workers: matrix.Workers(),
		Entries: entries,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_extract.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_extract.json")
}
