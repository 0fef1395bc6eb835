package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// laplacian1D builds the SPD tridiagonal [2 -1; -1 2 ...] system, the
// discrete analogue of a resistor chain.
func laplacian1D(n int) *Triplet {
	t := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Add(i, i, 2)
		if i > 0 {
			t.Add(i, i-1, -1)
		}
		if i < n-1 {
			t.Add(i, i+1, -1)
		}
	}
	return t
}

func TestTripletToCSR(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(0, 0, 2) // duplicate accumulation
	tr.Add(2, 1, -4)
	tr.Add(1, 2, 0) // ignored
	m := tr.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 0) != 3 || d.At(2, 1) != -4 {
		t.Errorf("CSR contents wrong:\n%v", d)
	}
}

// mapTriplet is the map-backed builder the append log replaced, kept as
// the reference the log's freeze must reproduce bit for bit.
type mapTriplet struct {
	rows, cols int
	entries    map[[2]int]float64
}

func newMapTriplet(r, c int) *mapTriplet {
	return &mapTriplet{rows: r, cols: c, entries: make(map[[2]int]float64)}
}

func (t *mapTriplet) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	t.entries[[2]int{i, j}] += v
}

func (t *mapTriplet) AddScaled(s float64, o *mapTriplet) *mapTriplet {
	if s == 0 {
		return t
	}
	for k, v := range o.entries {
		t.entries[k] += s * v
	}
	return t
}

// frozen is the reference ToCSR (ToCSC when byCol): nonzero sums sorted
// by (major, minor) and counted into pointers.
func (t *mapTriplet) frozen(byCol bool) (ptr, idx []int, val []float64) {
	type ent struct {
		major, minor int
		v            float64
	}
	var es []ent
	for k, v := range t.entries {
		if v == 0 {
			continue
		}
		if byCol {
			es = append(es, ent{k[1], k[0], v})
		} else {
			es = append(es, ent{k[0], k[1], v})
		}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].major != es[b].major {
			return es[a].major < es[b].major
		}
		return es[a].minor < es[b].minor
	})
	nMajor := t.rows
	if byCol {
		nMajor = t.cols
	}
	ptr = make([]int, nMajor+1)
	for _, e := range es {
		ptr[e.major+1]++
		idx = append(idx, e.minor)
		val = append(val, e.v)
	}
	for m := 0; m < nMajor; m++ {
		ptr[m+1] += ptr[m]
	}
	return ptr, idx, val
}

// sameFrozen reports whether two compressed forms match, values bit for
// bit.
func sameFrozen(ptrA, idxA []int, valA []float64, ptrB, idxB []int, valB []float64) bool {
	if len(ptrA) != len(ptrB) || len(idxA) != len(idxB) || len(valA) != len(valB) {
		return false
	}
	for k := range ptrA {
		if ptrA[k] != ptrB[k] {
			return false
		}
	}
	for k := range idxA {
		if idxA[k] != idxB[k] || math.Float64bits(valA[k]) != math.Float64bits(valB[k]) {
			return false
		}
	}
	return true
}

// randomStamps feeds one random stamp stream to both builders: few
// positions, so duplicates abound; values whose partial sums cancel
// exactly or round differently in another order; and zero adds.
func randomStamps(rng *rand.Rand, tr *Triplet, ref *mapTriplet) {
	vals := []float64{1, -1, 0.5, -0.5, 3, 0.1, -0.3, 1e-3, 1e16, -1e16, 0}
	for k := rng.Intn(40); k > 0; k-- {
		i, j, v := rng.Intn(tr.rows), rng.Intn(tr.cols), vals[rng.Intn(len(vals))]
		tr.Add(i, j, v)
		ref.Add(i, j, v)
	}
}

// TestTripletMatchesMapReferenceProperty checks the append log against
// the map reference on random stamp streams: ToCSR, ToCSC, ToDense,
// Each (as a set) and NNZ, bit for bit. It then freezes random G and C
// streams onto one union pattern and checks that the per-position
// expressions the simulator factors, (g + gmin) + αc, (g + gmin) + g
// and αc + (−g), with α of either sign, match the map's AddScaled
// chains frozen to CSC.
func TestTripletMatchesMapReferenceProperty(t *testing.T) {
	type pos struct {
		i, j int
		bits uint64
	}
	eachSet := func(each func(func(i, j int, v float64))) []pos {
		var out []pos
		each(func(i, j int, v float64) { out = append(out, pos{i, j, math.Float64bits(v)}) })
		sort.Slice(out, func(a, b int) bool {
			if out[a].i != out[b].i {
				return out[a].i < out[b].i
			}
			return out[a].j < out[b].j
		})
		return out
	}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(7), 1+rng.Intn(7)
		tr, ref := NewTriplet(r, c), newMapTriplet(r, c)
		randomStamps(rng, tr, ref)

		csr := tr.ToCSR()
		if p, i, v := ref.frozen(false); !sameFrozen(csr.rowPtr, csr.colIdx, csr.val, p, i, v) {
			t.Fatalf("seed %d: ToCSR differs from the map reference", seed)
		}
		csc := tr.ToCSC()
		if p, i, v := ref.frozen(true); !sameFrozen(csc.colPtr, csc.rowIdx, csc.val, p, i, v) {
			t.Fatalf("seed %d: ToCSC differs from the map reference", seed)
		}
		if tr.NNZ() != len(ref.entries) {
			t.Fatalf("seed %d: NNZ %d, map %d", seed, tr.NNZ(), len(ref.entries))
		}
		got := eachSet(tr.Each)
		want := eachSet(func(fn func(i, j int, v float64)) {
			for k, v := range ref.entries {
				fn(k[0], k[1], v)
			}
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: Each visits %v, map %v", seed, got, want)
		}
		d := tr.ToDense()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if math.Float64bits(d.At(i, j)) != math.Float64bits(ref.entries[[2]int{i, j}]) {
					t.Fatalf("seed %d: ToDense(%d,%d) = %g, map %g", seed, i, j, d.At(i, j), ref.entries[[2]int{i, j}])
				}
			}
		}

		// The MNA pencil: G and C frozen once onto their union pattern.
		n := 1 + rng.Intn(7)
		nodes := rng.Intn(n + 1)
		g, gRef := NewTriplet(n, n), newMapTriplet(n, n)
		cm, cRef := NewTriplet(n, n), newMapTriplet(n, n)
		randomStamps(rng, g, gRef)
		randomStamps(rng, cm, cRef)
		gmin := []float64{1e-12, 0.5, 1}[rng.Intn(3)]
		alpha := []float64{2e3, 1, -1, -0.5, 3}[rng.Intn(5)]
		colPtr, rowIdx, vals := FreezeUnion(nodes, g, cm)
		derive := func(f func(i, j int, g, c float64) float64) *CSC {
			ptr := make([]int, n+1)
			var idx []int
			var val []float64
			for j := 0; j < n; j++ {
				for p := colPtr[j]; p < colPtr[j+1]; p++ {
					if v := f(rowIdx[p], j, vals[0][p], vals[1][p]); v != 0 {
						idx, val = append(idx, rowIdx[p]), append(val, v)
					}
				}
				ptr[j+1] = len(val)
			}
			return &CSC{rows: n, cols: n, colPtr: ptr, rowIdx: idx, val: val}
		}
		withGmin := func(i, j int, g float64) float64 {
			if i == j && i < nodes {
				return g + gmin
			}
			return g
		}
		refGmin := func() *mapTriplet {
			m := newMapTriplet(n, n).AddScaled(1, gRef)
			for i := 0; i < nodes; i++ {
				m.Add(i, i, gmin)
			}
			return m
		}
		for _, tc := range []struct {
			name string
			ref  *mapTriplet
			f    func(i, j int, g, c float64) float64
		}{
			{"(g + gmin) + αc", refGmin().AddScaled(alpha, cRef),
				func(i, j int, g, c float64) float64 { return withGmin(i, j, g) + alpha*c }},
			{"(g + gmin) + g", refGmin().AddScaled(1, gRef),
				func(i, j int, g, _ float64) float64 { return withGmin(i, j, g) + g }},
			{"αc + (−g)", newMapTriplet(n, n).AddScaled(alpha, cRef).AddScaled(-1, gRef),
				func(_, _ int, g, c float64) float64 { return alpha*c - g }},
		} {
			a := derive(tc.f)
			if p, i, v := tc.ref.frozen(true); !sameFrozen(a.colPtr, a.rowIdx, a.val, p, i, v) {
				t.Fatalf("seed %d (α = %g, gmin = %g, %d nodes): %s differs from the map chain", seed, alpha, gmin, nodes, tc.name)
			}
		}
		// The union holds every G and C position, zero sums included,
		// and the node diagonals, with each log's sums over it.
		union := 0
		for j := 0; j < n; j++ {
			for p := colPtr[j]; p < colPtr[j+1]; p++ {
				i, k := rowIdx[p], [2]int{rowIdx[p], j}
				_, inG := gRef.entries[k]
				_, inC := cRef.entries[k]
				if !inG && !inC && !(i == j && i < nodes) {
					t.Fatalf("seed %d: union holds (%d,%d), stamped by neither log", seed, i, j)
				}
				if math.Float64bits(vals[0][p]) != math.Float64bits(gRef.entries[k]) ||
					math.Float64bits(vals[1][p]) != math.Float64bits(cRef.entries[k]) {
					t.Fatalf("seed %d: union values at (%d,%d) differ from the map sums", seed, i, j)
				}
				union++
			}
		}
		keys := map[[2]int]bool{}
		for k := range gRef.entries {
			keys[k] = true
		}
		for k := range cRef.entries {
			keys[k] = true
		}
		for i := 0; i < nodes; i++ {
			keys[[2]int{i, i}] = true
		}
		if union != len(keys) {
			t.Fatalf("seed %d: union has %d positions, want %d", seed, union, len(keys))
		}
	}
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTriplet(8, 8)
	for k := 0; k < 20; k++ {
		tr.Add(rng.Intn(8), rng.Intn(8), rng.NormFloat64())
	}
	m := tr.ToCSR()
	d := tr.ToDense()
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ys, yd := m.MulVec(x), d.MulVec(x)
	for i := range ys {
		if !almostEq(ys[i], yd[i], 1e-12) {
			t.Fatalf("sparse/dense mismatch at %d: %g vs %g", i, ys[i], yd[i])
		}
	}
}

func TestCSRMulDenseAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := NewTriplet(9, 7)
	for k := 0; k < 25; k++ {
		tr.Add(rng.Intn(9), rng.Intn(7), rng.NormFloat64())
	}
	b := NewDense(7, 4)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	ys, yd := tr.ToCSR().MulDense(b), tr.ToDense().Mul(b)
	if ys.Rows() != 9 || ys.Cols() != 4 {
		t.Fatalf("product is %dx%d, want 9x4", ys.Rows(), ys.Cols())
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(ys.At(i, j), yd.At(i, j), 1e-12) {
				t.Fatalf("sparse/dense mismatch at (%d,%d): %g vs %g", i, j, ys.At(i, j), yd.At(i, j))
			}
		}
	}
}

// solveJacobiCG runs PCG with the Jacobi preconditioner, the sparse IR
// path's solver.
func solveJacobiCG(m *CSR, b []float64, tol float64) ([]float64, IterResult, error) {
	pre, err := JacobiPrecond(m)
	if err != nil {
		return nil, IterResult{}, err
	}
	return PCG(CSROp{M: m}, b, PCGOptions{Tol: tol, Precond: pre})
}

func TestSolveCG(t *testing.T) {
	n := 50
	m := laplacian1D(n).ToCSR()
	rng := rand.New(rand.NewSource(8))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := m.MulVec(xTrue)
	x, res, err := solveJacobiCG(m, b, 1e-12)
	if err != nil || !res.Converged {
		t.Fatalf("CG: %+v, %v", res, err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-7) {
			t.Fatalf("CG x[%d]=%g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m := laplacian1D(5).ToCSR()
	x, _, err := solveJacobiCG(m, make([]float64, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if NormInf(x) != 0 {
		t.Errorf("CG of zero rhs should be zero")
	}
}

func TestCGRejectsNonSPDDiag(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, -1)
	tr.Add(1, 1, 1)
	if _, err := JacobiPrecond(tr.ToCSR()); err == nil {
		t.Errorf("CG should reject negative diagonal")
	}
}

func TestCGMatchesDenseSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		// Random SPD: Laplacian + random positive diagonal loading.
		tr := laplacian1D(n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, rng.Float64()+0.1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs, res, err := solveJacobiCG(tr.ToCSR(), b, 1e-13)
		if err != nil || !res.Converged {
			return false
		}
		xd, err := SolveDense(tr.ToDense(), b)
		if err != nil {
			return false
		}
		for i := range xs {
			if !almostEq(xs[i], xd[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComplexSolve(t *testing.T) {
	// (1+1i)x + 2y = 5+3i ; 3x + (4-2i)y = 6
	a := NewCDense(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, complex(4, -2))
	b := []complex128{complex(5, 3), 6}
	x, err := SolveComplex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	for i := range r {
		d := r[i] - b[i]
		if real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
			t.Fatalf("residual %v at %d", d, i)
		}
	}
}

func TestComplexSolveSingular(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveComplex(a, []complex128{1, 1}); err == nil {
		t.Errorf("expected singular error")
	}
}
