//go:build amd64

package matrix

// AVX2 micro-kernels for the blocked dense routines and the sparse
// triangular solves' dense runs. The kernels use
// separate VMULPD/VSUBPD (or VADDPD) instructions — never FMA — so each
// multiply and each subtract rounds exactly like the scalar reference
// code, and the blocked kernels stay bit-identical to the unblocked
// ones. SIMD lanes hold *different* matrix entries; no per-entry sum is
// ever split across lanes, so the accumulation order per entry is the
// same increasing-k order as the reference loops.

// gemmSubAVX2 updates a 4x4 tile: C -= L * U, where C points to the
// first element of a 4x4 tile with row stride cn, L to a 4 x kb block
// with row stride ln, and U to a kb x 4 tile packed contiguously
// (U[m][0..3] at u[4m..4m+3]).
//
//go:noescape
func gemmSubAVX2(c, l, u *float64, cn, ln, kb int)

// gemmAddAVX2 is gemmSubAVX2 with C += L * U (for Mul).
//
//go:noescape
func gemmAddAVX2(c, l, u *float64, cn, ln, kb int)

// axpySubAVX2 computes y[i] -= x[i]*a for i < n, four lanes at a time
// with a scalar tail; y and x need no alignment. Each entry gets one
// multiply and one subtract, rounded separately as in the scalar loop.
//
//go:noescape
func axpySubAVX2(y, x *float64, a float64, n int)

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// HasAVX2 reports whether this machine runs the AVX2 kernels, for the
// packages that carry AVX2 kernels of their own.
func HasAVX2() bool { return hasAVX2 }

// hasAVX2 reports whether the CPU and OS support AVX2 (YMM state
// enabled). Checked once at startup; the scalar tiled path is used
// otherwise, with identical results.
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&6 != 6 { // XMM and YMM state saved by OS
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0 // AVX2
}()
