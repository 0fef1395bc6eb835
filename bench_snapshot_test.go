package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"inductance101/internal/matrix"
)

// TestBenchSnapshot measures the key dense kernels with
// testing.Benchmark and writes BENCH_kernels.json, so kernel regressions
// show up as a diff instead of a vague slowdown. It only runs when
// BENCH_SNAPSHOT=1 (normal test runs must stay fast); regenerate with
// scripts/bench_kernels.sh.
func TestBenchSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to write BENCH_kernels.json")
	}

	type entry struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
		Speedup float64 `json:"speedup_vs_unblocked,omitempty"`
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
		t.Logf("%-24s %14.0f ns/op", name, ns)
		return ns
	}
	pair := func(name string, ref, opt func()) {
		refNs := measure(name+"_unblocked", ref)
		optNs := measure(name+"_blocked", opt)
		entries[len(entries)-1].Speedup = refNs / optNs
	}

	for _, n := range []int{256, 512} {
		a := benchRandDense(n)
		spd := benchRandSPD(n)
		pair("lu_"+fmt.Sprintf("%d", n),
			func() {
				if _, err := matrix.FactorLUUnblocked(a); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				if _, err := matrix.FactorLU(a); err != nil {
					t.Fatal(err)
				}
			})
		pair("cholesky_"+fmt.Sprintf("%d", n),
			func() {
				if _, err := matrix.FactorCholeskyUnblocked(spd); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				if _, err := matrix.FactorCholesky(spd); err != nil {
					t.Fatal(err)
				}
			})
	}
	x, y := benchRandDense(256), benchRandDense(256)
	pair("mul_256",
		func() { _ = x.MulUnblocked(y) },
		func() { _ = x.Mul(y) })

	out, err := json.MarshalIndent(struct {
		Note    string  `json:"note"`
		Workers int     `json:"workers"`
		Kernels []entry `json:"kernels"`
	}{
		Note:    "kernel timing snapshot; regenerate with scripts/bench_kernels.sh",
		Workers: matrix.Workers(),
		Kernels: entries,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kernels.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_kernels.json")
}
