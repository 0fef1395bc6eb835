package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// lap2D builds the 5-point Laplacian of an nx x ny grid with Dirichlet
// anchoring via diagonal shifts at the border — an SPD stand-in for a
// power-grid conductance system.
func lap2D(nx, ny int) *CSR {
	n := nx * ny
	rowPtr := make([]int, 0, n+1)
	rowPtr = append(rowPtr, 0)
	var colIdx []int
	var val []float64
	id := func(i, j int) int { return i*nx + j }
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			type ent struct {
				c int
				v float64
			}
			var row []ent
			diag := 0.0
			add := func(ii, jj int) {
				if ii < 0 || ii >= ny || jj < 0 || jj >= nx {
					diag += 1 // Dirichlet boundary keeps the system definite
					return
				}
				row = append(row, ent{id(ii, jj), -1})
				diag += 1
			}
			add(i, j-1)
			add(i, j+1)
			add(i-1, j)
			add(i+1, j)
			row = append(row, ent{id(i, j), diag})
			for a := 1; a < len(row); a++ {
				e := row[a]
				b := a - 1
				for b >= 0 && row[b].c > e.c {
					row[b+1] = row[b]
					b--
				}
				row[b+1] = e
			}
			for _, e := range row {
				colIdx = append(colIdx, e.c)
				val = append(val, e.v)
			}
			rowPtr = append(rowPtr, len(colIdx))
		}
	}
	return CSRFromParts(n, n, rowPtr, colIdx, val)
}

func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// oracleSolve factors the system with the sparse Cholesky — exact to
// machine precision — as the reference MG answers are compared against.
func oracleSolve(t *testing.T, a *CSR, b []float64) []float64 {
	t.Helper()
	ch, err := FactorSparseCholesky(a.AsSymmetricCSC())
	if err != nil {
		t.Fatalf("oracle Cholesky: %v", err)
	}
	x, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func NewMGMust(t *testing.T, a *CSR, opt MGOptions) *MG {
	t.Helper()
	m, err := NewMG(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMGPCGMatchesCholesky(t *testing.T) {
	for _, tc := range []struct {
		nx, ny    int
		seed      int64
		minLevels int
	}{
		{48, 48, 2, 2},
		{60, 55, 1, 3},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.nx, tc.ny), func(t *testing.T) {
			a := lap2D(tc.nx, tc.ny)
			b := randRHS(a.Rows(), tc.seed)
			want := oracleSolve(t, a, b)
			x, st, err := NewMGMust(t, a, MGOptions{}).SolvePCG(b, MGSolveOptions{Tol: 1e-12})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(x, want); d > 1e-8 {
				t.Errorf("PCG-MG solution off by %g from Cholesky", d)
			}
			if st.Iterations == 0 || st.Iterations > 60 {
				t.Errorf("suspicious PCG iteration count %d", st.Iterations)
			}
			if st.Levels < tc.minLevels {
				t.Errorf("expected at least %d levels, got %d", tc.minLevels, st.Levels)
			}
			if st.OperatorComplexity < 1 || st.OperatorComplexity > 3 {
				t.Errorf("operator complexity %g outside sane range", st.OperatorComplexity)
			}
		})
	}
}

// TestMGWarmStart pins that a warm start from the exact solution
// converges immediately (the transient stepper's fast path).
func TestMGWarmStart(t *testing.T) {
	a := lap2D(32, 32)
	b := randRHS(a.Rows(), 4)
	want := oracleSolve(t, a, b)
	x, st, err := NewMGMust(t, a, MGOptions{}).SolvePCG(b, MGSolveOptions{Tol: 1e-10, X0: want})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 1 {
		t.Errorf("warm start from the solution took %d iterations", st.Iterations)
	}
	if d := maxAbsDiff(x, want); d > 1e-9 {
		t.Errorf("warm-started solution drifted by %g", d)
	}
}

// TestMGWorkerDeterminism pins bit-identical results at every worker
// count — the contract every parallel kernel in this package carries.
func TestMGWorkerDeterminism(t *testing.T) {
	a := lap2D(50, 41)
	b := randRHS(a.Rows(), 5)
	x1, st1, err := NewMGMust(t, a, MGOptions{Workers: 1}).SolvePCG(b, MGSolveOptions{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 7} {
		xw, stw, err := NewMGMust(t, a, MGOptions{Workers: w}).SolvePCG(b, MGSolveOptions{Tol: 1e-11})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if stw.Iterations != st1.Iterations {
			t.Errorf("workers=%d: iteration count %d != serial %d", w, stw.Iterations, st1.Iterations)
		}
		for i := range xw {
			if xw[i] != x1[i] {
				t.Fatalf("workers=%d: x[%d] = %g != serial %g (not bit-identical)", w, i, xw[i], x1[i])
			}
		}
	}
}

// TestMGRejectsSingular pins the clear-error contract for singular
// systems: a pure Neumann Laplacian (no anchoring anywhere) must be
// rejected at build time, naming the positive-definiteness failure.
func TestMGRejectsSingular(t *testing.T) {
	// 1D path graph Laplacian with no Dirichlet anchor: singular.
	n := 600
	rowPtr := make([]int, 0, n+1)
	rowPtr = append(rowPtr, 0)
	var colIdx []int
	var val []float64
	for i := 0; i < n; i++ {
		d := 0.0
		if i > 0 {
			colIdx = append(colIdx, i-1)
			val = append(val, -1)
			d++
		}
		at := len(colIdx)
		colIdx = append(colIdx, i)
		val = append(val, 0)
		if i < n-1 {
			colIdx = append(colIdx, i+1)
			val = append(val, -1)
			d++
		}
		val[at] = d
		rowPtr = append(rowPtr, len(colIdx))
	}
	a := CSRFromParts(n, n, rowPtr, colIdx, val)
	_, err := NewMG(a, MGOptions{})
	if err == nil {
		t.Fatal("NewMG accepted a singular (pure-Neumann) system")
	}
	if !strings.Contains(err.Error(), "positive definite") {
		t.Errorf("error does not name the definiteness failure: %v", err)
	}
}

// shortCoarsener returns an aggregate map one entry short of the level.
type shortCoarsener struct{}

func (shortCoarsener) Aggregates(level, n int) []int { return make([]int, n-1) }

// TestMGOptionValidation pins the fail-fast contract on a coarsener
// whose aggregate map does not cover the level, and on a non-square
// matrix.
func TestMGOptionValidation(t *testing.T) {
	a := lap2D(30, 30)
	if _, err := NewMG(a, MGOptions{Coarsener: shortCoarsener{}}); err == nil || !strings.Contains(err.Error(), "coarsener returned") {
		t.Errorf("NewMG accepted a short aggregate map: %v", err)
	}
	rect := &CSR{rows: 3, cols: 4, rowPtr: make([]int, 4)}
	if _, err := NewMG(rect, MGOptions{}); err == nil {
		t.Error("NewMG accepted a rectangular matrix")
	}
}

// TestCSRMulAgainstDense pins the parallel sparse product the setup
// phase is built on.
func TestCSRMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randCSR := func(r, c int, density float64) *CSR {
		tr := NewTriplet(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < density {
					tr.Add(i, j, rng.NormFloat64())
				}
			}
		}
		return tr.ToCSR()
	}
	a := randCSR(37, 29, 0.15)
	b := randCSR(29, 23, 0.2)
	for _, w := range []int{1, 4} {
		got := csrMul(a, b, w)
		want := a.ToDense().Mul(b.ToDense())
		gd := got.ToDense()
		for i := 0; i < 37; i++ {
			for j := 0; j < 23; j++ {
				if d := math.Abs(gd.At(i, j) - want.At(i, j)); d > 1e-12 {
					t.Fatalf("workers=%d: product (%d,%d) off by %g", w, i, j, d)
				}
			}
		}
	}
}

// TestCSRTranspose pins the transpose used for restriction operators.
func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := NewTriplet(13, 21)
	for k := 0; k < 60; k++ {
		tr.Add(rng.Intn(13), rng.Intn(21), rng.NormFloat64())
	}
	m := tr.ToCSR()
	mt := csrTranspose(m)
	d, dt := m.ToDense(), mt.ToDense()
	for i := 0; i < 13; i++ {
		for j := 0; j < 21; j++ {
			if d.At(i, j) != dt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestGreedyAggregates pins basic sanity: every node aggregated, ids
// dense, neighbors clustered.
func TestGreedyAggregates(t *testing.T) {
	a := lap2D(16, 16)
	agg := greedyAggregates(a, 0.08)
	nc, aggD := normalizeAggregates(agg)
	if nc <= 0 || nc >= a.Rows() {
		t.Fatalf("aggregation made no progress: %d aggregates for %d nodes", nc, a.Rows())
	}
	seen := make([]bool, nc)
	for _, v := range aggD {
		if v < 0 || v >= nc {
			t.Fatalf("aggregate id %d outside [0,%d)", v, nc)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("aggregate %d empty after normalization", i)
		}
	}
	if nc > a.Rows()/2 {
		t.Errorf("weak coarsening: %d aggregates for %d nodes", nc, a.Rows())
	}
}

// TestSolveCGStats pins the iteration/residual statistics of the
// Jacobi-preconditioned PCG.
func TestSolveCGStats(t *testing.T) {
	a := lap2D(20, 20)
	b := randRHS(a.Rows(), 9)
	x, st, err := solveJacobiCG(a, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iters <= 0 {
		t.Errorf("CG stats report %d iterations (converged %v)", st.Iters, st.Converged)
	}
	if st.Residual <= 0 || st.Residual > 1e-9 {
		t.Errorf("CG stats residual %g inconsistent with tol 1e-9", st.Residual)
	}
	want := oracleSolve(t, a, b)
	if d := maxAbsDiff(x, want); d > 1e-6 {
		t.Errorf("CG solution off by %g", d)
	}
}

// TestMGConcurrentSolves exercises many simultaneous solves — with
// conflicting per-solve worker counts — against one shared hierarchy.
// Run under -race this pins the pooled-scratch concurrency contract;
// results must also stay bit-identical to a serial solve.
func TestMGConcurrentSolves(t *testing.T) {
	a := lap2D(40, 37)
	m := NewMGMust(t, a, MGOptions{Workers: 2})
	const sessions = 8
	rhs := make([][]float64, sessions)
	want := make([][]float64, sessions)
	for s := range rhs {
		rhs[s] = randRHS(a.Rows(), int64(100+s))
		x, _, err := m.SolvePCG(rhs[s], MGSolveOptions{Tol: 1e-11, Workers: 1 + s%4})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = x
	}
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Conflicting worker counts across concurrent sessions.
			x, _, err := m.SolvePCG(rhs[s], MGSolveOptions{Tol: 1e-11, Workers: 1 + s%4})
			if err != nil {
				errs[s] = err
				return
			}
			for i := range x {
				if x[i] != want[s][i] {
					errs[s] = fmt.Errorf("session %d: x[%d] = %g differs from isolated solve %g", s, i, x[i], want[s][i])
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
