package matrix_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"inductance101/internal/matrix"
)

// hashOrdering is the FNV-64a hash of an elimination order, one
// little-endian uint64 per entry.
func hashOrdering(q []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range q {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// randPattern is a random n x n CSC pattern with about perCol
// off-diagonal entries per column, a full diagonal and, when banded,
// a tridiagonal backbone — nonsymmetric, so the A + A^T symmetrization
// is exercised too.
func randPattern(rng *rand.Rand, n, perCol int, banded bool) (colPtr, rowIdx []int) {
	colPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		rows := map[int]bool{j: true}
		if banded {
			if j > 0 {
				rows[j-1] = true
			}
			if j+1 < n {
				rows[j+1] = true
			}
		}
		for k := 0; k < perCol; k++ {
			rows[rng.Intn(n)] = true
		}
		col := make([]int, 0, len(rows))
		for i := range rows {
			col = append(col, i)
		}
		sort.Ints(col)
		rowIdx = append(rowIdx, col...)
		colPtr[j+1] = len(rowIdx)
	}
	return colPtr, rowIdx
}

// TestMinDegreeOrderingPinned pins the minimum-degree permutation on
// random patterns. The hashes were recorded from the map-based
// implementation; any change to the elimination order — and with it
// every sparse factorization's fill and rounding — shows up here.
func TestMinDegreeOrderingPinned(t *testing.T) {
	cases := []struct {
		n, perCol int
		banded    bool
		seed      int64
		want      uint64
	}{
		{1, 0, false, 1, 0xa8c7f832281a39c5},
		{40, 2, false, 2, 0xd295da19e498505},
		{200, 1, true, 3, 0x4749facba1b6665},
		{300, 3, false, 4, 0xb642870118e722f1},
		{600, 2, true, 5, 0xa9ed41fa5bc46e1d},
		{1000, 1, false, 6, 0x5bdcdba051a23bf1},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		colPtr, rowIdx := randPattern(rng, c.n, c.perCol, c.banded)
		q := matrix.MinDegreeOrdering(c.n, colPtr, rowIdx)
		if len(q) != c.n {
			t.Fatalf("n=%d: ordering has %d entries", c.n, len(q))
		}
		seen := make([]bool, c.n)
		for _, v := range q {
			if v < 0 || v >= c.n || seen[v] {
				t.Fatalf("n=%d: ordering is not a permutation", c.n)
			}
			seen[v] = true
		}
		if got := hashOrdering(q); got != c.want {
			t.Errorf("n=%d perCol=%d banded=%v seed=%d: ordering hash %#x, want %#x",
				c.n, c.perCol, c.banded, c.seed, got, c.want)
		}
	}

	// A 5-point grid Laplacian: every interior node ties on degree, so
	// the (degree, index) tie-break decides almost every step.
	const side = 40
	g := matrix.NewTriplet(side*side, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			i := y*side + x
			g.Add(i, i, 4)
			if x+1 < side {
				g.Add(i, i+1, -1)
				g.Add(i+1, i, -1)
			}
			if y+1 < side {
				g.Add(i, i+side, -1)
				g.Add(i+side, i, -1)
			}
		}
	}
	colPtr, rowIdx := g.ToCSC().Pattern()
	if got, want := hashOrdering(matrix.MinDegreeOrdering(side*side, colPtr, rowIdx)), uint64(0x301367953ba00555); got != want {
		t.Errorf("%dx%d grid: ordering hash %#x, want %#x", side, side, got, want)
	}
}
