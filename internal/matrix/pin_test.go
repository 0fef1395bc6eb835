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
		x0    []float64
		iters int
		hash  uint64
	}{
		{nil, 16, 0x6601a51ea9611f65},
		{ones, 15, 0x24aa2961506be0d8},
	}
	for _, tc := range cases {
		mg, err := matrix.NewMG(g.Sys, matrix.MGOptions{Workers: 1, Coarsener: g.Coarsener()})
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := mg.SolvePCG(g.B, matrix.MGSolveOptions{Tol: 1e-10, X0: tc.x0})
		if err != nil {
			t.Fatalf("warm=%v: %v", tc.x0 != nil, err)
		}
		if h := hashReal(x); st.Iterations != tc.iters || h != tc.hash {
			t.Errorf("warm=%v: %d iterations, hash %#016x; want %d, %#016x",
				tc.x0 != nil, st.Iterations, h, tc.iters, tc.hash)
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
		x, res, err := matrix.GMRES(matrix.CDenseOp{M: a}, b, tc.opt)
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

// pinSolveComplexSystems is the SolveComplex pin set: random systems of
// every order up to 60 with ~30% exact zeros (so the elimination meets
// zero multipliers and pivots out of place), then near-singular ones
// whose last row repeats the first up to a 1e-12 perturbation.
func pinSolveComplexSystems() (as []*matrix.CDense, bs [][]complex128) {
	rng := rand.New(rand.NewSource(7))
	entry := func() complex128 {
		if rng.Float64() < 0.3 {
			return 0
		}
		return complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for n := 1; n <= 60; n++ {
		a := matrix.NewCDense(n, n)
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, entry())
			}
			b[i] = entry()
		}
		as, bs = append(as, a), append(bs, b)
	}
	for _, n := range []int{2, 5, 17, 40} {
		a := matrix.NewCDense(n, n)
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, entry())
			}
			b[i] = complex(rng.NormFloat64(), 0)
		}
		for j := 0; j < n; j++ {
			a.Set(n-1, j, a.At(0, j)*complex(1+1e-12*rng.NormFloat64(), 0))
		}
		as, bs = append(as, a), append(bs, b)
	}
	return as, bs
}

// TestSolveComplexBitIdentityPin pins SolveComplex's solutions to the
// values of its former inline elimination loop (recorded before it
// became FactorComplexLU followed by SolveTo): the AC sweep, PRIMA's
// transfer function and the FastHenry port solve all go through it, and
// their goldens are bit-identical only as long as this hash holds.
// Systems that are singular to the last bit must keep failing with
// ErrSingular.
func TestSolveComplexBitIdentityPin(t *testing.T) {
	as, bs := pinSolveComplexSystems()
	h := fnv.New64a()
	singular := 0
	for k, a := range as {
		x, err := matrix.SolveComplex(a, bs[k])
		if err == matrix.ErrSingular {
			singular++
			continue
		}
		if err != nil {
			t.Fatalf("system %d: %v", k, err)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], hashComplex(x))
		h.Write(buf[:])
	}
	const want = 0xbb4d844a751d540f
	if got := h.Sum64(); got != want || singular != 0 {
		t.Errorf("SolveComplex pin: hash %#016x, %d singular; want %#016x, 0", got, singular, uint64(want))
	}

	// A zero column is singular at its elimination step.
	z := matrix.NewCDense(3, 3)
	z.Set(0, 0, 1)
	z.Set(1, 2, 2)
	z.Set(2, 2, 3)
	if _, err := matrix.SolveComplex(z, make([]complex128, 3)); err != matrix.ErrSingular {
		t.Errorf("zero column: err = %v, want ErrSingular", err)
	}
	if _, err := matrix.SolveComplex(matrix.NewCDense(2, 3), make([]complex128, 2)); err == nil {
		t.Error("non-square system solved without error")
	}
	if _, err := matrix.SolveComplex(matrix.NewCDense(2, 2), make([]complex128, 3)); err == nil {
		t.Error("mismatched right-hand side solved without error")
	}
}
