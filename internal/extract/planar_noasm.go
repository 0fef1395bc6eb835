//go:build !amd64

package extract

// Non-amd64 builds run the scalar planar kernels only.
const planarAVX2 = false

func rowSumsAVX2(v, x, y *float64, m, n int) {
	panic("extract: AVX2 kernel called without AVX2 support")
}

func colAxpysAVX2(v, x, y *float64, m, n int) {
	panic("extract: AVX2 kernel called without AVX2 support")
}

func symPairAVX2(v, xr, xc, yr, yc *float64, m, n int) {
	panic("extract: AVX2 kernel called without AVX2 support")
}
