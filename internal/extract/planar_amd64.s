//go:build amd64

#include "textflag.h"

// AVX2 bodies of the planar matvec kernels (planar.go). Every multiply
// and every add is its own VMULPD/VADDPD (never FMA) and each SIMD lane
// holds a different output entry, so every entry sees the scalar
// kernels' sequence of roundings:
//
//   - a row sum (rowSums, symPair's yr) lives in one lane of a row
//     group's accumulator, starts at +0 and takes its terms in
//     increasing column order. A 4x4 tile of products v[i][j]·x[j]
//     (four rows, one 4-wide load each) is transposed in registers, so
//     that column j's four products form one vector, and the columns
//     are added in order.
//   - an axpy output (colAxpys, symPair's yc) lives in one lane of a
//     column vector and takes its rows' terms in increasing row order.
//
// Row stride is n float64s. rowSums and symPair take rows in groups of
// 8 (two accumulators whose add chains overlap), then of 4; colAxpys
// runs every row over groups of columns.

// tailmask<> holds the lane masks of a 1- to 3-lane tail (colAxpys'
// last columns, rowSums' last rows): the mask of r lanes is the 4
// entries at offset 8*(3-r).
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $48

// TRANSPOSE_ADD adds the columns of the 4x4 tile whose rows are in
// Y2..Y5 to acc, column 0 first. The unpacks pair rows 0,1 and 2,3
// within each 128-bit half ([p00 p10 p02 p12], [p01 p11 p03 p13], and
// the same for rows 2,3); the lane permutes join the halves into
// columns 0..3. Clobbers Y2..Y9.
#define TRANSPOSE_ADD(acc) \
	VUNPCKLPD Y3, Y2, Y6 \
	; VUNPCKHPD Y3, Y2, Y7 \
	; VUNPCKLPD Y5, Y4, Y8 \
	; VUNPCKHPD Y5, Y4, Y9 \
	; VPERM2F128 $0x20, Y8, Y6, Y2 \
	; VPERM2F128 $0x20, Y9, Y7, Y3 \
	; VPERM2F128 $0x31, Y8, Y6, Y4 \
	; VPERM2F128 $0x31, Y9, Y7, Y5 \
	; VADDPD Y2, acc, acc \
	; VADDPD Y3, acc, acc \
	; VADDPD Y4, acc, acc \
	; VADDPD Y5, acc, acc

// The group macros take the addresses of the four rows' current
// entries: (R12), (R12)(R8*1), (R12)(R8*2), (R12)(R9*1) for four
// consecutive rows at R12, or four row pointers.

// GATHER_COL loads the current entry of rows a0..a3 into
// Y2 = [v0 v1 v2 v3]. Clobbers Y3.
#define GATHER_COL(a0, a1, a2, a3) \
	VMOVSD a0, X2 \
	; VMOVHPD a1, X2, X2 \
	; VMOVSD a2, X3 \
	; VMOVHPD a3, X3, X3 \
	; VINSERTF128 $1, X3, Y2, Y2

// ROW_TILE adds x[j..j+3] (in Y15) times the 4x4 tile of rows a0..a3
// to acc.
#define ROW_TILE(a0, a1, a2, a3, acc) \
	VMULPD a0, Y15, Y2 \
	; VMULPD a1, Y15, Y3 \
	; VMULPD a2, Y15, Y4 \
	; VMULPD a3, Y15, Y5 \
	; TRANSPOSE_ADD(acc)

// ROW_COL adds x[j] (broadcast in Y15) times column j of rows a0..a3
// to acc.
#define ROW_COL(a0, a1, a2, a3, acc) \
	GATHER_COL(a0, a1, a2, a3) \
	; VMULPD Y15, Y2, Y2 \
	; VADDPD Y2, acc, acc

// func rowSumsAVX2(v, x, y *float64, m, n int)
//
// y[i] += Σ_j v[i][j]·x[j] for the m x n block v; m, n > 0. Rows run
// in groups of 8, then of at most 4: a group of r < 4 rows repeats its
// last row's pointer in the spare lanes and writes back only r lanes.
TEXT ·rowSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ y+16(FP), DI
	MOVQ m+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8             // row stride in bytes
	LEAQ (R8)(R8*2), R9     // three rows
	MOVQ CX, R10
	ANDQ $-4, R10           // columns in whole tiles

rs8:
	CMPQ BX, $8
	JLT  rs4
	MOVQ SI, R12            // rows 0-3, advancing along j
	LEAQ (SI)(R8*4), R11    // rows 4-7
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	CMPQ AX, R10
	JGE  rs8tail

rs8loop:
	VMOVUPD (DX)(AX*8), Y15
	ROW_TILE((R12), (R12)(R8*1), (R12)(R8*2), (R12)(R9*1), Y0)
	ROW_TILE((R11), (R11)(R8*1), (R11)(R8*2), (R11)(R9*1), Y1)
	ADDQ $32, R12
	ADDQ $32, R11
	ADDQ $4, AX
	CMPQ AX, R10
	JLT  rs8loop

rs8tail:
	CMPQ AX, CX
	JGE  rs8done
	VBROADCASTSD (DX)(AX*8), Y15
	ROW_COL((R12), (R12)(R8*1), (R12)(R8*2), (R12)(R9*1), Y0)
	ROW_COL((R11), (R11)(R8*1), (R11)(R8*2), (R11)(R9*1), Y1)
	ADDQ $8, R12
	ADDQ $8, R11
	INCQ AX
	JMP  rs8tail

rs8done:
	VADDPD (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD 32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	LEAQ (SI)(R8*8), SI
	ADDQ $64, DI
	SUBQ $8, BX
	JMP  rs8

rs4:
	CMPQ BX, $0
	JLE  rsdone
	MOVQ SI, R12            // row pointers, the last real row repeated
	LEAQ (SI)(R8*1), R11
	CMPQ BX, $2
	CMOVQLT R12, R11
	LEAQ (SI)(R8*2), R13
	CMPQ BX, $3
	CMOVQLT R11, R13
	LEAQ (SI)(R9*1), R14
	CMPQ BX, $4
	CMOVQLT R13, R14
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	CMPQ AX, R10
	JGE  rs4tail

rs4loop:
	VMOVUPD (DX)(AX*8), Y15
	ROW_TILE((R12), (R11), (R13), (R14), Y0)
	ADDQ $32, R12
	ADDQ $32, R11
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $4, AX
	CMPQ AX, R10
	JLT  rs4loop

rs4tail:
	CMPQ AX, CX
	JGE  rs4done
	VBROADCASTSD (DX)(AX*8), Y15
	ROW_COL((R12), (R11), (R13), (R14), Y0)
	ADDQ $8, R12
	ADDQ $8, R11
	ADDQ $8, R13
	ADDQ $8, R14
	INCQ AX
	JMP  rs4tail

rs4done:
	CMPQ BX, $4
	JLT  rs4part
	VADDPD (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	LEAQ (SI)(R8*4), SI
	ADDQ $32, DI
	SUBQ $4, BX
	JMP  rs4

rs4part:
	MOVQ $3, R10
	SUBQ BX, R10
	LEAQ tailmask<>(SB), R11
	VMOVUPD (R11)(R10*8), Y14
	VMASKMOVPD (DI), Y14, Y1
	VADDPD Y1, Y0, Y0
	VMASKMOVPD Y0, Y14, (DI)

rsdone:
	VZEROUPPER
	RET

// func colAxpysAVX2(v, x, y *float64, m, n int)
//
// y[j] += Σ_i v[i][j]·x[i] for the m x n block v, rows in increasing
// order; m, n > 0. Sixteen columns per pass (four accumulators), then
// four, then a masked 1- to 3-column tail.
TEXT ·colAxpysAVX2(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ y+16(FP), DI
	MOVQ m+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8             // row stride in bytes

ca16:
	CMPQ CX, $16
	JLT  ca4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, R12
	XORQ AX, AX

ca16loop:
	VBROADCASTSD (DX)(AX*8), Y15
	VMULPD (R12), Y15, Y4
	VMULPD 32(R12), Y15, Y5
	VMULPD 64(R12), Y15, Y6
	VMULPD 96(R12), Y15, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ R8, R12
	INCQ AX
	CMPQ AX, BX
	JLT  ca16loop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  ca16

ca4:
	CMPQ CX, $4
	JLT  catail
	VMOVUPD (DI), Y0
	MOVQ SI, R12
	XORQ AX, AX

ca4loop:
	VBROADCASTSD (DX)(AX*8), Y15
	VMULPD (R12), Y15, Y4
	VADDPD Y4, Y0, Y0
	ADDQ R8, R12
	INCQ AX
	CMPQ AX, BX
	JLT  ca4loop
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  ca4

catail:
	CMPQ CX, $0
	JEQ  cadone
	MOVQ $3, R10
	SUBQ CX, R10
	LEAQ tailmask<>(SB), R11
	VMOVUPD (R11)(R10*8), Y14
	VMASKMOVPD (DI), Y14, Y0
	MOVQ SI, R12
	XORQ AX, AX

catailloop:
	VBROADCASTSD (DX)(AX*8), Y15
	VMASKMOVPD (R12), Y14, Y4
	VMULPD Y15, Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ R8, R12
	INCQ AX
	CMPQ AX, BX
	JLT  catailloop
	VMASKMOVPD Y0, Y14, (DI)

cadone:
	VZEROUPPER
	RET

// SYM_TILE runs the 4x4 tile of rows a0..a3 both ways: yc[j..j+3]
// (Y13) takes the four rows' axpys with their xr (xoff bytes into R14)
// in row order, and the tile's products with xc[j..j+3] (Y14) go to
// the row sums in acc.
#define SYM_TILE(a0, a1, a2, a3, xoff, acc) \
	VMOVUPD a0, Y2 \
	; VBROADCASTSD xoff+0(R14), Y10 \
	; VMULPD Y2, Y10, Y10 \
	; VADDPD Y10, Y13, Y13 \
	; VMULPD Y14, Y2, Y2 \
	; VMOVUPD a1, Y3 \
	; VBROADCASTSD xoff+8(R14), Y10 \
	; VMULPD Y3, Y10, Y10 \
	; VADDPD Y10, Y13, Y13 \
	; VMULPD Y14, Y3, Y3 \
	; VMOVUPD a2, Y4 \
	; VBROADCASTSD xoff+16(R14), Y10 \
	; VMULPD Y4, Y10, Y10 \
	; VADDPD Y10, Y13, Y13 \
	; VMULPD Y14, Y4, Y4 \
	; VMOVUPD a3, Y5 \
	; VBROADCASTSD xoff+24(R14), Y10 \
	; VMULPD Y5, Y10, Y10 \
	; VADDPD Y10, Y13, Y13 \
	; VMULPD Y14, Y5, Y5 \
	; TRANSPOSE_ADD(acc)

// SYM_COL runs column j (AX) of rows a0..a3 both ways: xc[j]
// (broadcast in Y14) times the column goes to the row sums in acc, and
// yc[j] takes the column times xr (xrv, four rows) one row at a time.
#define SYM_COL(a0, a1, a2, a3, xrv, acc) \
	GATHER_COL(a0, a1, a2, a3) \
	; VMULPD Y14, Y2, Y4 \
	; VADDPD Y4, acc, acc \
	; VMULPD xrv, Y2, Y5 \
	; VMOVSD (DI)(AX*8), X6 \
	; VADDSD X5, X6, X6 \
	; VPERMILPD $1, X5, X7 \
	; VADDSD X7, X6, X6 \
	; VEXTRACTF128 $1, Y5, X8 \
	; VADDSD X8, X6, X6 \
	; VPERMILPD $1, X8, X9 \
	; VADDSD X9, X6, X6 \
	; VMOVSD X6, (DI)(AX*8)

// func symPairAVX2(v, xr, xc, yr, yc *float64, m, n int)
//
// yr[i] += Σ_j v[i][j]·xc[j] and yc[j] += Σ_i v[i][j]·xr[i] (rows in
// increasing order) in one pass over the m x n block v; m is a
// multiple of 4 and n > 0.
TEXT ·symPairAVX2(SB), NOSPLIT, $0-56
	MOVQ v+0(FP), SI
	MOVQ xr+8(FP), R14
	MOVQ xc+16(FP), DX
	MOVQ yr+24(FP), R13
	MOVQ yc+32(FP), DI
	MOVQ m+40(FP), BX
	MOVQ n+48(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8             // row stride in bytes
	LEAQ (R8)(R8*2), R9     // three rows
	MOVQ CX, R10
	ANDQ $-4, R10           // columns in whole tiles

sp8:
	CMPQ BX, $8
	JLT  sp4
	MOVQ SI, R12            // rows 0-3, advancing along j
	LEAQ (SI)(R8*4), R11    // rows 4-7
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	CMPQ AX, R10
	JGE  sp8tail

sp8loop:
	VMOVUPD (DX)(AX*8), Y14
	VMOVUPD (DI)(AX*8), Y13
	SYM_TILE((R12), (R12)(R8*1), (R12)(R8*2), (R12)(R9*1), 0, Y0)
	SYM_TILE((R11), (R11)(R8*1), (R11)(R8*2), (R11)(R9*1), 32, Y1)
	VMOVUPD Y13, (DI)(AX*8)
	ADDQ $32, R12
	ADDQ $32, R11
	ADDQ $4, AX
	CMPQ AX, R10
	JLT  sp8loop

sp8tail:
	CMPQ AX, CX
	JGE  sp8done
	VMOVUPD (R14), Y11
	VMOVUPD 32(R14), Y12

sp8col:
	VBROADCASTSD (DX)(AX*8), Y14
	SYM_COL((R12), (R12)(R8*1), (R12)(R8*2), (R12)(R9*1), Y11, Y0)
	SYM_COL((R11), (R11)(R8*1), (R11)(R8*2), (R11)(R9*1), Y12, Y1)
	ADDQ $8, R12
	ADDQ $8, R11
	INCQ AX
	CMPQ AX, CX
	JLT  sp8col

sp8done:
	VADDPD (R13), Y0, Y0
	VMOVUPD Y0, (R13)
	VADDPD 32(R13), Y1, Y1
	VMOVUPD Y1, 32(R13)
	LEAQ (SI)(R8*8), SI
	ADDQ $64, R14
	ADDQ $64, R13
	SUBQ $8, BX
	JMP  sp8

sp4:
	CMPQ BX, $4
	JLT  spdone
	MOVQ SI, R12
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	CMPQ AX, R10
	JGE  sp4tail

sp4loop:
	VMOVUPD (DX)(AX*8), Y14
	VMOVUPD (DI)(AX*8), Y13
	SYM_TILE((R12), (R12)(R8*1), (R12)(R8*2), (R12)(R9*1), 0, Y0)
	VMOVUPD Y13, (DI)(AX*8)
	ADDQ $32, R12
	ADDQ $4, AX
	CMPQ AX, R10
	JLT  sp4loop

sp4tail:
	CMPQ AX, CX
	JGE  sp4done
	VMOVUPD (R14), Y11

sp4col:
	VBROADCASTSD (DX)(AX*8), Y14
	SYM_COL((R12), (R12)(R8*1), (R12)(R8*2), (R12)(R9*1), Y11, Y0)
	ADDQ $8, R12
	INCQ AX
	CMPQ AX, CX
	JLT  sp4col

sp4done:
	VADDPD (R13), Y0, Y0
	VMOVUPD Y0, (R13)

spdone:
	VZEROUPPER
	RET
