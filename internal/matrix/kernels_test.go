package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestAxpySubAVX2MatchesScalar checks the dense-run kernel of the
// sparse triangular solves against the scalar loop it replaces, bit for
// bit, at every length through the 8-wide, 4-wide and scalar-tail paths
// and at unaligned offsets into both operands.
func TestAxpySubAVX2MatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(3))
	const pad = 80
	for n := 0; n <= 67; n++ {
		for _, off := range [][2]int{{0, 0}, {1, 3}, {3, 1}, {2, 2}, {5, 7}} {
			y := make([]float64, pad)
			x := make([]float64, pad)
			for i := range y {
				y[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
			a := rng.NormFloat64()
			want := append([]float64(nil), y...)
			ys, xs := want[off[0]:off[0]+n], x[off[1]:off[1]+n]
			for i := range ys {
				ys[i] -= xs[i] * a
			}
			got := append([]float64(nil), y...)
			var yp, xp *float64
			if n > 0 {
				yp, xp = &got[off[0]], &x[off[1]]
			}
			axpySubAVX2(yp, xp, a, n)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d offsets %v: entry %d is %v, scalar loop %v", n, off, i, got[i], want[i])
				}
			}
		}
	}
}
