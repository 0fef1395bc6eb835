//go:build amd64

#include "textflag.h"

// func gemmSubAVX2(c, l, u *float64, cn, ln, kb int)
//
// C (4x4 tile, row stride cn) -= L (4 x kb, row stride ln) * U (kb x 4,
// packed contiguously). Uses VMULPD + VSUBPD, never FMA: every multiply
// and subtract rounds separately, exactly like the scalar reference
// kernel, and m increases monotonically, so the result is bit-identical
// to applying the kb rank-1 updates one at a time.
TEXT ·gemmSubAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ u+16(FP), DX
	MOVQ cn+24(FP), CX
	MOVQ ln+32(FP), R14
	MOVQ kb+40(FP), BX
	SHLQ $3, CX          // C row stride in bytes
	SHLQ $3, R14         // L row stride in bytes
	LEAQ (DI)(CX*1), R8
	LEAQ (DI)(CX*2), R9
	LEAQ (R8)(CX*2), R10
	VMOVUPD (DI), Y0     // C row accumulators
	VMOVUPD (R8), Y1
	VMOVUPD (R9), Y2
	VMOVUPD (R10), Y3
	LEAQ (SI)(R14*1), R11
	LEAQ (SI)(R14*2), R12
	LEAQ (R11)(R14*2), R13
	XORQ AX, AX
	CMPQ BX, $0
	JLE  subdone

subloop:
	VMOVUPD (DX), Y4              // U[m][0..3]
	VBROADCASTSD (SI)(AX*8), Y5   // L[0][m]
	VBROADCASTSD (R11)(AX*8), Y6  // L[1][m]
	VBROADCASTSD (R12)(AX*8), Y7  // L[2][m]
	VBROADCASTSD (R13)(AX*8), Y8  // L[3][m]
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VSUBPD Y5, Y0, Y0
	VSUBPD Y6, Y1, Y1
	VSUBPD Y7, Y2, Y2
	VSUBPD Y8, Y3, Y3
	ADDQ $32, DX
	INCQ AX
	CMPQ AX, BX
	JLT  subloop

subdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R8)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, (R10)
	VZEROUPPER
	RET

// func gemmAddAVX2(c, l, u *float64, cn, ln, kb int)
//
// Same tile shape as gemmSubAVX2 with C += L * U (the Mul kernel).
TEXT ·gemmAddAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ u+16(FP), DX
	MOVQ cn+24(FP), CX
	MOVQ ln+32(FP), R14
	MOVQ kb+40(FP), BX
	SHLQ $3, CX
	SHLQ $3, R14
	LEAQ (DI)(CX*1), R8
	LEAQ (DI)(CX*2), R9
	LEAQ (R8)(CX*2), R10
	VMOVUPD (DI), Y0
	VMOVUPD (R8), Y1
	VMOVUPD (R9), Y2
	VMOVUPD (R10), Y3
	LEAQ (SI)(R14*1), R11
	LEAQ (SI)(R14*2), R12
	LEAQ (R11)(R14*2), R13
	XORQ AX, AX
	CMPQ BX, $0
	JLE  adddone

addloop:
	VMOVUPD (DX), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VBROADCASTSD (R11)(AX*8), Y6
	VBROADCASTSD (R12)(AX*8), Y7
	VBROADCASTSD (R13)(AX*8), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $32, DX
	INCQ AX
	CMPQ AX, BX
	JLT  addloop

adddone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R8)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, (R10)
	VZEROUPPER
	RET

// func axpySubAVX2(y, x *float64, a float64, n int)
//
// y[i] -= x[i]*a for i < n: VMULPD then VSUBPD, never FMA, so every
// entry rounds exactly like the scalar loop. Eight entries per
// iteration, then one block of four, then a scalar tail.
TEXT ·axpySubAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD a+16(FP), Y0
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX         // entries covered by the 8-wide loop
	JZ   axpy4

axpy8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VSUBPD Y1, Y3, Y3
	VSUBPD Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  axpy8

axpy4:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JLT  axpy1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX

axpy1:
	CMPQ AX, CX
	JGE  axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ AX
	JMP  axpy1

axpydone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
