package matrix_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"inductance101/internal/matrix"
)

// pinSparseSystem is one sparse LU pin case: a real matrix, and the
// complex matrix on the same pattern.
type pinSparseSystem struct {
	name string
	a    *matrix.CSC
	ca   *matrix.CCSC
}

// pinRandomSparse is an n x n matrix with about perCol random
// off-diagonal entries per column. Diagonals are weighted by dom: below
// 1 some columns pivot off the diagonal, above it none do.
func pinRandomSparse(rng *rand.Rand, n, perCol int, dom float64) *matrix.Triplet {
	t := matrix.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		t.Add(j, j, dom*(1+rng.Float64()))
		for k := 0; k < perCol; k++ {
			if i := rng.Intn(n); i != j {
				t.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return t
}

// pinArrow is the MNA shape of an RLC netlist with mutual inductors: a
// sparse chain of n-m nodes, each tied to a few of the m trailing
// unknowns, which couple all to all. Minimum degree orders the dense
// block last, so the factor's columns end in long contiguous runs.
func pinArrow(rng *rand.Rand, n, m int) *matrix.Triplet {
	t := matrix.NewTriplet(n, n)
	s := n - m
	for j := 0; j < s; j++ {
		t.Add(j, j, 4+rng.Float64())
		if j+1 < s {
			t.Add(j, j+1, -1+0.1*rng.NormFloat64())
			t.Add(j+1, j, -1+0.1*rng.NormFloat64())
		}
		for k := 0; k < 2; k++ {
			b := s + rng.Intn(m)
			t.Add(j, b, 0.5*rng.NormFloat64())
			t.Add(b, j, 0.5*rng.NormFloat64())
		}
	}
	for i := s; i < n; i++ {
		for j := s; j < n; j++ {
			v := 0.2 * rng.NormFloat64()
			if i == j {
				v = float64(m) + rng.Float64()
			}
			t.Add(i, j, v)
		}
	}
	return t
}

// complexOnPattern gives a the same pattern with complex values: the
// real part kept, a random imaginary part added.
func complexOnPattern(rng *rand.Rand, a *matrix.CSC) *matrix.CCSC {
	colPtr, rowIdx := a.Pattern()
	val := make([]complex128, 0, a.NNZ())
	a.Each(func(i, j int, v float64) {
		val = append(val, complex(v, 0.3*rng.NormFloat64()))
	})
	return matrix.CSCFromParts(a.Rows(), a.Cols(), append([]int(nil), colPtr...), append([]int(nil), rowIdx...), val)
}

func pinSparseSystems() []pinSparseSystem {
	rng := rand.New(rand.NewSource(11))
	var out []pinSparseSystem
	add := func(name string, t *matrix.Triplet) {
		a := t.ToCSC()
		out = append(out, pinSparseSystem{name, a, complexOnPattern(rng, a)})
	}
	add("n1", pinRandomSparse(rng, 1, 0, 2))
	add("n7", pinRandomSparse(rng, 7, 2, 0.5))
	add("n60", pinRandomSparse(rng, 60, 3, 0.5))
	add("n250", pinRandomSparse(rng, 250, 2, 3))
	add("n400", pinRandomSparse(rng, 400, 4, 0.8))
	add("arrow", pinArrow(rng, 320, 72))
	return out
}

// pinRHS are the right-hand sides of a pin case: two dense random
// vectors and one with a single nonzero, so the solves meet exact-zero
// intermediates and skip their columns.
func pinRHS[T float64 | complex128](rng *rand.Rand, n int, mk func(re, im float64) T) [][]T {
	var bs [][]T
	for r := 0; r < 2; r++ {
		b := make([]T, n)
		for i := range b {
			b[i] = mk(rng.NormFloat64(), rng.NormFloat64())
		}
		bs = append(bs, b)
	}
	b := make([]T, n)
	b[n/2] = mk(1, -1)
	return append(bs, b)
}

type pinSolver[T float64 | complex128] interface {
	Solve(b []T) ([]T, error)
	SolveTo(dst, b, scratch []T) error
}

// pinSolveHash solves every right-hand side with SolveTo and Solve and
// returns the FNV-64a hash of all the solutions in order.
func pinSolveHash[T float64 | complex128](t *testing.T, name string, f pinSolver[T], bs [][]T, hash func([]T) uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	for _, b := range bs {
		n := len(b)
		dst, scratch := make([]T, n), make([]T, n)
		if err := f.SolveTo(dst, b, scratch); err != nil {
			t.Fatalf("%s: SolveTo: %v", name, err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("%s: Solve: %v", name, err)
		}
		for _, v := range [][]T{dst, x} {
			binary.LittleEndian.PutUint64(buf[:], hash(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestSparseLUSolvePinned pins the sparse LU's solutions, real and
// complex, after a fresh factorization and after a numeric Refactor on
// the same pattern. The hashes were recorded before the triangular
// solves ran the trailing dense runs of each factor column as
// contiguous updates, and before sortColumns became a transpose pass;
// both promise bit-identical results, and any change to the factor
// values, the pivot order or the per-entry update order shows up here.
func TestSparseLUSolvePinned(t *testing.T) {
	want := map[string][2]uint64{
		"n1":    {0x19a051ad26ecd96b, 0xb077aee7fcb4dd59},
		"n7":    {0x5805113ab837ea20, 0x7ae2b5e41c864af9},
		"n60":   {0x8261b04a1f56e5dc, 0xb662ebd59725a0a9},
		"n250":  {0x67b3e7f83c13e6bc, 0x11dae13ade41d471},
		"n400":  {0x98a53e657da80d5a, 0x6dab7a6ff818039d},
		"arrow": {0x5ab6cbb8327ce019, 0x18faccd97e910491},
	}
	rng := rand.New(rand.NewSource(12))
	mkReal := func(re, _ float64) float64 { return re }
	mkComplex := func(re, im float64) complex128 { return complex(re, im) }
	for _, c := range pinSparseSystems() {
		n := c.a.Rows()
		bs := pinRHS(rng, n, mkReal)
		cbs := pinRHS(rng, n, mkComplex)

		f, err := matrix.FactorSparseLU(c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cf, err := matrix.FactorSparseCLU(c.ca)
		if err != nil {
			t.Fatalf("%s: complex: %v", c.name, err)
		}
		// Refactor on scaled values: same pattern, new numbers.
		val := make([]float64, 0, c.a.NNZ())
		c.a.Each(func(i, j int, v float64) { val = append(val, v*(1+0.25*rng.Float64())) })
		rf := f.NewNumeric()
		if err := rf.Refactor(c.a.WithValues(val)); err != nil {
			t.Fatalf("%s: Refactor: %v", c.name, err)
		}

		h := fnv.New64a()
		var buf [8]byte
		for _, v := range []uint64{
			uint64(f.FactorNNZ()),
			pinSolveHash[float64](t, c.name, f, bs, hashReal),
			pinSolveHash[float64](t, c.name, rf, bs, hashReal),
		} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		got := [2]uint64{h.Sum64(), pinSolveHash[complex128](t, c.name, cf, cbs, hashComplex)}
		if got != want[c.name] {
			t.Errorf("%s: solve hashes {%#x, %#x}, want {%#x, %#x}", c.name, got[0], got[1], want[c.name][0], want[c.name][1])
		}
	}
}

// TestSparseLUSolveToAllocations pins that SolveTo, the per-step solve
// of every sparse transient, allocates nothing.
func TestSparseLUSolveToAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(13))
	a := pinArrow(rng, 200, 40).ToCSC()
	f, err := matrix.FactorSparseLU(a)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := matrix.FactorSparseCLU(complexOnPattern(rng, a))
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	b, dst, scratch := make([]float64, n), make([]float64, n), make([]float64, n)
	cb, cdst, cscratch := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	for i := range b {
		b[i] = rng.NormFloat64()
		cb[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := f.SolveTo(dst, b, scratch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("real SolveTo: %v allocations per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := cf.SolveTo(cdst, cb, cscratch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("complex SolveTo: %v allocations per call, want 0", allocs)
	}
}
