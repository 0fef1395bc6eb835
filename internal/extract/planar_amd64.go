//go:build amd64

package extract

import "inductance101/internal/matrix"

// planarAVX2 routes the planar kernels to their AVX2 bodies
// (planar_amd64.s), which are bit-identical to the scalar ones.
var planarAVX2 = matrix.HasAVX2()

// rowSumsAVX2 is rowSumsScalar on the m x n block at v, m, n > 0.
//
//go:noescape
func rowSumsAVX2(v, x, y *float64, m, n int)

// colAxpysAVX2 is colAxpysScalar on the m x n block at v, m, n > 0.
//
//go:noescape
func colAxpysAVX2(v, x, y *float64, m, n int)

// symPairAVX2 is symPairScalar on the m x n block at v, m a multiple
// of 4 and n > 0.
//
//go:noescape
func symPairAVX2(v, xr, xc, yr, yc *float64, m, n int)
