package matrix_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"inductance101/internal/grid"
	"inductance101/internal/matrix"
)

// The values below were recorded from the three CG loops and the two
// GMRES entry points that the single PCG and GMRES replaced. Each case
// pins the iteration count and an FNV-64a hash of the solution's
// float64 bit patterns, so any change to the update order, the
// convergence test or the preconditioner plumbing shows up here.

func hashReal(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func hashComplex(x []complex128) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(real(v)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(imag(v)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// pinSynthGrid is the ~5k-node synthetic power grid the CG pins run on.
func pinSynthGrid(t *testing.T) *grid.SynthGrid {
	t.Helper()
	g, err := grid.Synthesize(grid.DefaultSynthSpec(5000))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pinComplexSystem is a banded-decay, diagonally weighted complex system
// on which plain GMRES needs more than one restart cycle.
func pinComplexSystem() (*matrix.CDense, []complex128) {
	rng := rand.New(rand.NewSource(42))
	const n = 48
	a := matrix.NewCDense(n, n)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := complex(rng.NormFloat64(), rng.NormFloat64()) / complex(float64(1+(i-j)*(i-j)), 0)
			a.Set(i, j, v)
			row += cmplx.Abs(v)
		}
		a.Set(i, i, complex(0.6*row+rng.Float64(), 2*rng.NormFloat64()))
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a, b
}

func TestMGSolvePCGBitIdentityPins(t *testing.T) {
	g := pinSynthGrid(t)
	ones := make([]float64, g.N)
	for i := range ones {
		ones[i] = 1
	}
	cases := []struct {
		smoother matrix.MGSmoother
		x0       []float64
		iters    int
		hash     uint64
	}{
		{matrix.SmootherJacobi, nil, 15, 0x8859aaaaa6dc2337},
		{matrix.SmootherJacobi, ones, 14, 0x55c6336f1efc6e99},
		{matrix.SmootherGaussSeidel, nil, 13, 0xe82fd517d297ba33},
		{matrix.SmootherGaussSeidel, ones, 12, 0x5dd3a92585004df1},
	}
	for _, tc := range cases {
		mg, err := matrix.NewMG(g.Sys, matrix.MGOptions{Workers: 1, Smoother: tc.smoother, Coarsener: g.Coarsener()})
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := mg.SolvePCG(g.B, matrix.MGSolveOptions{Tol: 1e-10, X0: tc.x0})
		if err != nil {
			t.Fatalf("%v warm=%v: %v", tc.smoother, tc.x0 != nil, err)
		}
		if h := hashReal(x); st.Iterations != tc.iters || h != tc.hash {
			t.Errorf("%v warm=%v: %d iterations, hash %#016x; want %d, %#016x",
				tc.smoother, tc.x0 != nil, st.Iterations, h, tc.iters, tc.hash)
		}
	}
}

func TestJacobiPCGBitIdentityPin(t *testing.T) {
	g := pinSynthGrid(t)
	pre, err := matrix.JacobiPrecond(g.Sys)
	if err != nil {
		t.Fatal(err)
	}
	x, res, err := matrix.PCG(matrix.CSROp{M: g.Sys}, g.B, matrix.PCGOptions{Tol: 1e-10, Precond: pre})
	if err != nil || !res.Converged {
		t.Fatalf("Jacobi PCG: %+v, %v", res, err)
	}
	if h := hashReal(x); res.Iters != 179 || h != 0xff9cbc2370fcb2fe {
		t.Errorf("Jacobi PCG: %d iterations, hash %#016x; want 179, 0xff9cbc2370fcb2fe", res.Iters, h)
	}
}

func TestGMRESNilSpaceBitIdentityPins(t *testing.T) {
	a, b := pinComplexSystem()
	diag := make([]complex128, a.Rows())
	for i := range diag {
		diag[i] = a.At(i, i)
	}
	jacobi := func(dst, src []complex128) {
		for i := range dst {
			dst[i] = src[i] / diag[i]
		}
	}
	cases := []struct {
		name  string
		opt   matrix.GMRESOptions
		iters int
		hash  uint64
	}{
		{"plain", matrix.GMRESOptions{Tol: 1e-10}, 59, 0x2ff5a3e1ace60167},
		{"preconditioned", matrix.GMRESOptions{Tol: 1e-10, Precond: jacobi}, 27, 0x11c59e01b49f5477},
		{"restart2", matrix.GMRESOptions{Tol: 1e-10, Restart: 2}, 148, 0xfa3816e2ebc18663},
	}
	for _, tc := range cases {
		x, res, err := matrix.GMRES(matrix.CDenseOp{M: a}, b, tc.opt, nil)
		if err != nil || !res.Converged {
			t.Fatalf("%s: %+v, %v", tc.name, res, err)
		}
		if h := hashComplex(x); res.Iters != tc.iters || h != tc.hash {
			t.Errorf("%s: %d iterations, hash %#016x; want %d, %#016x", tc.name, res.Iters, h, tc.iters, tc.hash)
		}
	}
}

// TestMGSolvePCGAllocations pins that a warm hierarchy solves on pooled
// scratch: each full solve (cold start, every PCG iteration and V-cycle
// run) allocates its returned solution and little else.
func TestMGSolvePCGAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := pinSynthGrid(t)
	mg, err := matrix.NewMG(g.Sys, matrix.MGOptions{Workers: 1, Coarsener: g.Coarsener()})
	if err != nil {
		t.Fatal(err)
	}
	opt := matrix.MGSolveOptions{Tol: 1e-10}
	runtime.GC()
	if _, _, err := mg.SolvePCG(g.B, opt); err != nil { // fills the scratch pool
		t.Fatal(err)
	}
	const solves = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < solves; i++ {
		if _, _, err := mg.SolvePCG(g.B, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.TotalAlloc-before.TotalAlloc) / solves
	t.Logf("%.0f B allocated per solve (%d-node solution: %d B)", perSolve, g.N, 8*g.N)
	if limit := 1.5 * 8 * float64(g.N); perSolve > limit {
		t.Errorf("SolvePCG allocates %.0f B per solve, want < %.0f (1.5x the %d-node solution)", perSolve, limit, g.N)
	}
}
