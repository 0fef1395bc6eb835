package extract

import (
	"math"
	"math/rand"
	"testing"
)

// planarValues draws n values spanning 1e-12..1e12 in magnitude with
// both signs, and an occasional signed zero.
func planarValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(16) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(0, -1)
		default:
			out[i] = (1 + rng.Float64()) * math.Pow(10, 24*rng.Float64()-12)
			if rng.Intn(2) == 0 {
				out[i] = -out[i]
			}
		}
	}
	return out
}

// planarShapes are the block shapes of the kernel property test: every
// row and column count up to 19 (whole 8- and 4-row groups, scalar row
// tails, 1- to 3-column tails, single rows and columns and empty
// blocks), the 32x32 and 48x48 leaf blocks, and random larger ones.
func planarShapes(rng *rand.Rand) [][2]int {
	var shapes [][2]int
	for m := 0; m <= 19; m++ {
		for n := 0; n <= 19; n++ {
			shapes = append(shapes, [2]int{m, n})
		}
	}
	shapes = append(shapes, [2]int{32, 32}, [2]int{48, 48})
	for k := 0; k < 40; k++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(80), 1 + rng.Intn(80)})
	}
	return shapes
}

// sameBits reports the first entry where got and want differ in their
// bits, or -1.
func sameBits(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// guarded returns a copy of y followed by four guard entries, sliced
// to len(y): a kernel that writes past its output shows in the guards.
func guarded(y []float64) []float64 {
	g := append(append([]float64(nil), y...), 1, 2, 3, 4)
	return g[:len(y)]
}

// TestPlanarKernelsMatchScalar runs rowSums, colAxpys and symPair —
// on amd64 with AVX2, their AVX2 kernels plus the scalar row tails —
// against the scalar kernels bit for bit, on every shape of
// planarShapes. The operands start one entry into their slices, so the
// kernels' 4-wide loads are unaligned, and each output is followed by
// guard entries that must stay untouched.
func TestPlanarKernelsMatchScalar(t *testing.T) {
	if !planarAVX2 {
		t.Skip("no AVX2 on this machine: the kernels are the scalar ones")
	}
	rng := rand.New(rand.NewSource(11))
	for _, sh := range planarShapes(rng) {
		m, n := sh[0], sh[1]
		v := planarValues(rng, m*n+1)[1:]
		xm, xn := planarValues(rng, m+1)[1:], planarValues(rng, n+1)[1:]
		ym, yn := planarValues(rng, m+1)[1:], planarValues(rng, n+1)[1:]

		// Compare with the guards included.
		check := func(what string, got, want []float64) {
			t.Helper()
			got, want = got[:len(got)+4], want[:len(want)+4]
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s %dx%d: entry %d is %v, scalar %v", what, m, n, i, got[i], want[i])
			}
		}

		got, want := guarded(ym), guarded(ym)
		rowSums(v, xn, got)
		rowSumsScalar(v, xn, want)
		check("rowSums y", got, want)

		got, want = guarded(yn), guarded(yn)
		colAxpys(v, xm, got)
		colAxpysScalar(v, xm, want)
		check("colAxpys y", got, want)

		gotR, wantR := guarded(ym), guarded(ym)
		gotC, wantC := guarded(yn), guarded(yn)
		symPair(v, xm, xn, gotR, gotC)
		symPairScalar(v, xm, xn, wantR, wantC)
		check("symPair yr", gotR, wantR)
		check("symPair yc", gotC, wantC)
	}
}

// BenchmarkPlanarKernels times each planar kernel and its scalar
// oracle on a 32x32 block, the bus leaf size.
func BenchmarkPlanarKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, n = 32, 32
	v := planarValues(rng, m*n)
	xm, xn := planarValues(rng, m), planarValues(rng, n)
	ym, yn := make([]float64, m), make([]float64, n)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"rowSums", func() { rowSums(v, xn, ym) }},
		{"rowSumsScalar", func() { rowSumsScalar(v, xn, ym) }},
		{"colAxpys", func() { colAxpys(v, xm, yn) }},
		{"colAxpysScalar", func() { colAxpysScalar(v, xm, yn) }},
		{"symPair", func() { symPair(v, xm, xn, ym, yn) }},
		{"symPairScalar", func() { symPairScalar(v, xm, xn, ym, yn) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}
