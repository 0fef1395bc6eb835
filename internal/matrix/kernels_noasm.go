//go:build !amd64

package matrix

// Non-amd64 builds use the scalar tiled kernels only; results are
// identical (the AVX2 kernels never change per-entry operation order).
const hasAVX2 = false

// HasAVX2 reports whether this machine runs the AVX2 kernels, for the
// packages that carry AVX2 kernels of their own.
func HasAVX2() bool { return false }

func gemmSubAVX2(c, l, u *float64, cn, ln, kb int) {
	panic("matrix: AVX2 kernel called without AVX2 support")
}

func gemmAddAVX2(c, l, u *float64, cn, ln, kb int) {
	panic("matrix: AVX2 kernel called without AVX2 support")
}

func axpySubAVX2(y, x *float64, a float64, n int) {
	panic("matrix: AVX2 kernel called without AVX2 support")
}
