//go:build amd64

#include "textflag.h"

// Bit-exact AVX kernels (see exact.go for the contract). Each ymm lane is
// its own destination element, and every product is a VMULPD followed by
// a VADDPD onto that element's chain, never an FMA, so the lanes round
// exactly as the scalar Go loops do.

// exactMask<> holds the four lane masks of a panel's last vector: entry
// r-1 selects its first r lanes.
DATA exactMask<>+0(SB)/8, $-1
DATA exactMask<>+8(SB)/8, $0
DATA exactMask<>+16(SB)/8, $0
DATA exactMask<>+24(SB)/8, $0
DATA exactMask<>+32(SB)/8, $-1
DATA exactMask<>+40(SB)/8, $-1
DATA exactMask<>+48(SB)/8, $0
DATA exactMask<>+56(SB)/8, $0
DATA exactMask<>+64(SB)/8, $-1
DATA exactMask<>+72(SB)/8, $-1
DATA exactMask<>+80(SB)/8, $-1
DATA exactMask<>+88(SB)/8, $0
DATA exactMask<>+96(SB)/8, $-1
DATA exactMask<>+104(SB)/8, $-1
DATA exactMask<>+112(SB)/8, $-1
DATA exactMask<>+120(SB)/8, $-1
GLOBL exactMask<>(SB), RODATA|NOPTR, $128

// One row's update for the current k: broadcast a[row][k] from p, then
// add its product with each of the panel's vectors of b (BX) to that
// row's accumulators. The last vector was loaded masked into Y13.
#define ROW1(p, r0) \
	VBROADCASTSD (p)(CX*8), Y15; \
	VMULPD       Y13, Y15, Y14;  \
	VADDPD       Y14, r0, r0

#define ROW2(p, r0, r1) \
	VBROADCASTSD (p)(CX*8), Y15; \
	VMULPD       (BX), Y15, Y14; \
	VADDPD       Y14, r0, r0;    \
	VMULPD       Y13, Y15, Y14;  \
	VADDPD       Y14, r1, r1

#define ROW3(p, r0, r1, r2) \
	VBROADCASTSD (p)(CX*8), Y15; \
	VMULPD       (BX), Y15, Y14; \
	VADDPD       Y14, r0, r0;    \
	VMULPD       32(BX), Y15, Y14; \
	VADDPD       Y14, r1, r1;    \
	VMULPD       Y13, Y15, Y14;  \
	VADDPD       Y14, r2, r2

// Stores of one row's panel at DI; the last vector goes through the mask.
#define STORE1(r0) \
	VMASKMOVPD r0, Y12, (DI)

#define STORE2(r0, r1) \
	VMOVUPD    r0, (DI);  \
	VMASKMOVPD r1, Y12, 32(DI)

#define STORE3(r0, r1, r2) \
	VMOVUPD    r0, (DI);   \
	VMOVUPD    r1, 32(DI); \
	VMASKMOVPD r2, Y12, 64(DI)

// func gemmNarrowAVX(dst, a, b []float64, rows, k, n int)
//
// dst (rows x n) = a (rows x k) · b (k x n), all row-major and dense,
// rows, k, n >= 1. Columns go in panels of up to 12 (three vectors, the
// last masked to the panel's width), rows in groups of four whose 12
// accumulators stay in Y0-Y11 for the whole k loop; a short last group
// repeats its last row and stores only the real ones. Every element
// starts at +0 and adds a_ik·b_kj for k = 0, 1, ... on its own lane.
//
// Registers: R11 panel column j0, R12 group row r0, R13 vectors in the
// panel, DX row stride of b and dst in bytes, SI R8 R9 R10 the group's a
// rows, BX b at (k, j0), CX k, DI dst at (r0, j0), Y12 the mask, Y13 the
// masked last vector of b, Y14 a product, Y15 a broadcast a_ik.
TEXT ·gemmNarrowAVX(SB), NOSPLIT, $0-96
	MOVQ n+88(FP), DX
	SHLQ $3, DX
	XORQ R11, R11

panel:
	CMPQ R11, n+88(FP)
	JGE  done
	MOVQ n+88(FP), AX
	SUBQ R11, AX
	CMPQ AX, $12
	JLE  width
	MOVQ $12, AX

width:
	// AX = panel width w in 1..12: R13 = ceil(w/4) vectors, and the
	// last one keeps its first ((w-1) mod 4) + 1 lanes.
	LEAQ    3(AX), R13
	SHRQ    $2, R13
	DECQ    AX
	ANDQ    $3, AX
	SHLQ    $5, AX
	LEAQ    exactMask<>(SB), R10
	VMOVUPD (R10)(AX*1), Y12
	XORQ    R12, R12

group:
	CMPQ R12, rows+72(FP)
	JGE  panelnext

	// a rows r0..r0+3, each clamped to the last row (AX).
	MOVQ    k+80(FP), CX
	SHLQ    $3, CX
	MOVQ    rows+72(FP), AX
	DECQ    AX
	IMULQ   CX, AX
	ADDQ    a_base+24(FP), AX
	MOVQ    R12, SI
	IMULQ   CX, SI
	ADDQ    a_base+24(FP), SI
	LEAQ    (SI)(CX*1), R8
	CMPQ    R8, AX
	CMOVQHI AX, R8
	LEAQ    (R8)(CX*1), R9
	CMPQ    R9, AX
	CMOVQHI AX, R9
	LEAQ    (R9)(CX*1), R10
	CMPQ    R10, AX
	CMOVQHI AX, R10

	MOVQ  R12, DI
	IMULQ DX, DI
	LEAQ  (DI)(R11*8), DI
	ADDQ  dst_base+0(FP), DI
	MOVQ  b_base+48(FP), BX
	LEAQ  (BX)(R11*8), BX
	XORQ  CX, CX

	CMPQ R13, $2
	JL   nv1
	JE   nv2

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

loop3:
	VMASKMOVPD 64(BX), Y12, Y13
	ROW3(SI, Y0, Y1, Y2)
	ROW3(R8, Y3, Y4, Y5)
	ROW3(R9, Y6, Y7, Y8)
	ROW3(R10, Y9, Y10, Y11)
	ADDQ       DX, BX
	INCQ       CX
	CMPQ       CX, k+80(FP)
	JL         loop3

	MOVQ rows+72(FP), AX
	SUBQ R12, AX
	STORE3(Y0, Y1, Y2)
	CMPQ AX, $2
	JL   groupnext
	ADDQ DX, DI
	STORE3(Y3, Y4, Y5)
	CMPQ AX, $3
	JL   groupnext
	ADDQ DX, DI
	STORE3(Y6, Y7, Y8)
	CMPQ AX, $4
	JL   groupnext
	ADDQ DX, DI
	STORE3(Y9, Y10, Y11)
	JMP  groupnext

nv2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10

loop2:
	VMASKMOVPD 32(BX), Y12, Y13
	ROW2(SI, Y0, Y1)
	ROW2(R8, Y3, Y4)
	ROW2(R9, Y6, Y7)
	ROW2(R10, Y9, Y10)
	ADDQ       DX, BX
	INCQ       CX
	CMPQ       CX, k+80(FP)
	JL         loop2

	MOVQ rows+72(FP), AX
	SUBQ R12, AX
	STORE2(Y0, Y1)
	CMPQ AX, $2
	JL   groupnext
	ADDQ DX, DI
	STORE2(Y3, Y4)
	CMPQ AX, $3
	JL   groupnext
	ADDQ DX, DI
	STORE2(Y6, Y7)
	CMPQ AX, $4
	JL   groupnext
	ADDQ DX, DI
	STORE2(Y9, Y10)
	JMP  groupnext

nv1:
	VXORPD Y0, Y0, Y0
	VXORPD Y3, Y3, Y3
	VXORPD Y6, Y6, Y6
	VXORPD Y9, Y9, Y9

loop1:
	VMASKMOVPD (BX), Y12, Y13
	ROW1(SI, Y0)
	ROW1(R8, Y3)
	ROW1(R9, Y6)
	ROW1(R10, Y9)
	ADDQ       DX, BX
	INCQ       CX
	CMPQ       CX, k+80(FP)
	JL         loop1

	MOVQ rows+72(FP), AX
	SUBQ R12, AX
	STORE1(Y0)
	CMPQ AX, $2
	JL   groupnext
	ADDQ DX, DI
	STORE1(Y3)
	CMPQ AX, $3
	JL   groupnext
	ADDQ DX, DI
	STORE1(Y6)
	CMPQ AX, $4
	JL   groupnext
	ADDQ DX, DI
	STORE1(Y9)

groupnext:
	ADDQ $4, R12
	JMP  group

panelnext:
	ADDQ $12, R11
	JMP  panel

done:
	VZEROUPPER
	RET

// One sample's two terms on the element(s) in t: t += x·u, then
// t += s·(c·u), with u at (p)(AX*8), s in sv, x in xv, c in cv, and p2 a
// product register. The V form works on four lanes, the S form on one.
#define TERMS_V(p, xv, cv, t, sv, p2) \
	VMULPD (p)(AX*8), xv, p2; \
	VADDPD p2, t, t;          \
	VMULPD (p)(AX*8), cv, p2; \
	VMULPD p2, sv, p2;        \
	VADDPD p2, t, t

#define TERMS_S(p, xv, cv, t, sv, p2) \
	VMULSD (p)(AX*8), xv, p2; \
	VADDSD p2, t, t;          \
	VMULSD (p)(AX*8), cv, p2; \
	VMULSD p2, sv, p2;        \
	VADDSD p2, t, t

// func powerGradRowAVX(g, s, u, d []float64, dstride int, coeffs []float64)
//
// One gradient row of the surrogate's power-loss gradient: for samples
// b = 0, 1, ... (len(coeffs) of them) in increasing order, every element
// j of g adds d[b·dstride]·u_b[j] and then s[j]·(coeffs[b]·u_b[j]), with
// u_b = u[b·len(g) : (b+1)·len(g)]. Four samples share one pass over g
// (broadcast x in Y8-Y11, c in Y12-Y15), the rest one pass each; within
// a pass four elements go per vector and the last len(g) mod 4 one at a
// time.
//
// Registers: DI g, SI s, R9 R10 CX DX the pass's u rows, R8 the next
// sample b, R11 the pass's end sample, R12 the row stride of u in bytes,
// R13 scratch, AX the element j, BX len(g) rounded down to four.
TEXT ·powerGradRowAVX(SB), NOSPLIT, $0-128
	MOVQ g_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ g_len+8(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12
	ANDQ $-4, BX
	XORQ R8, R8

quad:
	LEAQ 4(R8), R11
	CMPQ R11, coeffs_len+112(FP)
	JGT  single

	// x_b .. x_b+3: d[b·dstride] and on, stride dstride.
	MOVQ         dstride+96(FP), CX
	SHLQ         $3, CX
	MOVQ         R8, R13
	IMULQ        CX, R13
	ADDQ         d_base+72(FP), R13
	VBROADCASTSD (R13), Y8
	VBROADCASTSD (R13)(CX*1), Y9
	LEAQ         (R13)(CX*2), R13
	VBROADCASTSD (R13), Y10
	VBROADCASTSD (R13)(CX*1), Y11
	MOVQ         coeffs_base+104(FP), R13
	VBROADCASTSD (R13)(R8*8), Y12
	VBROADCASTSD 8(R13)(R8*8), Y13
	VBROADCASTSD 16(R13)(R8*8), Y14
	VBROADCASTSD 24(R13)(R8*8), Y15
	MOVQ         R8, R9
	IMULQ        R12, R9
	ADDQ         u_base+48(FP), R9
	LEAQ         (R9)(R12*1), R10
	LEAQ         (R9)(R12*2), CX
	LEAQ         (CX)(R12*1), DX
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          quadtail

quadvec:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	TERMS_V(R9, Y8, Y12, Y0, Y1, Y2)
	TERMS_V(R10, Y9, Y13, Y0, Y1, Y2)
	TERMS_V(CX, Y10, Y14, Y0, Y1, Y2)
	TERMS_V(DX, Y11, Y15, Y0, Y1, Y2)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JL      quadvec

quadtail:
	CMPQ   AX, g_len+8(FP)
	JGE    quadnext
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X1
	TERMS_S(R9, X8, X12, X0, X1, X2)
	TERMS_S(R10, X9, X13, X0, X1, X2)
	TERMS_S(CX, X10, X14, X0, X1, X2)
	TERMS_S(DX, X11, X15, X0, X1, X2)
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    quadtail

quadnext:
	MOVQ R11, R8
	JMP  quad

single:
	CMPQ R8, coeffs_len+112(FP)
	JGE  done

	MOVQ         dstride+96(FP), R13
	IMULQ        R8, R13
	SHLQ         $3, R13
	ADDQ         d_base+72(FP), R13
	VBROADCASTSD (R13), Y8
	MOVQ         coeffs_base+104(FP), R13
	VBROADCASTSD (R13)(R8*8), Y12
	MOVQ         R8, R9
	IMULQ        R12, R9
	ADDQ         u_base+48(FP), R9
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          singletail

singlevec:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	TERMS_V(R9, Y8, Y12, Y0, Y1, Y2)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JL      singlevec

singletail:
	CMPQ   AX, g_len+8(FP)
	JGE    singlenext
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X1
	TERMS_S(R9, X8, X12, X0, X1, X2)
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    singletail

singlenext:
	INCQ R8
	JMP  single

done:
	VZEROUPPER
	RET

// The terms of one column, c bytes past column j (CX), lo and hi
// holding its inputs 0-3 and 4-7: the output chains Y0 (inputs 0-3) and
// Y1 (4-7) add (diff_ij·u)·vdd with diff_ij at c(BX)(CX*8), and the
// total chains Y2 and Y3 add (sum_ij·u)·vdd with sum_ij at c(R8)(CX*8).
// Each product is rounded before the next step. MCOL is the mask row's
// column, mask_j at c(R8)(CX*8), on the total chains only.
#define COL(c, lo, hi) \
	VBROADCASTSD c(BX)(CX*8), Y12; \
	VBROADCASTSD c(R8)(CX*8), Y13; \
	VMULPD       lo, Y12, Y14;     \
	VMULPD       Y15, Y14, Y14;    \
	VADDPD       Y14, Y0, Y0;      \
	VMULPD       hi, Y12, Y14;     \
	VMULPD       Y15, Y14, Y14;    \
	VADDPD       Y14, Y1, Y1;      \
	VMULPD       lo, Y13, Y14;     \
	VMULPD       Y15, Y14, Y14;    \
	VADDPD       Y14, Y2, Y2;      \
	VMULPD       hi, Y13, Y14;     \
	VMULPD       Y15, Y14, Y14;    \
	VADDPD       Y14, Y3, Y3

#define MCOL(c, lo, hi) \
	VBROADCASTSD c(R8)(CX*8), Y13; \
	VMULPD       lo, Y13, Y14;     \
	VMULPD       Y15, Y14, Y14;    \
	VADDPD       Y14, Y2, Y2;      \
	VMULPD       hi, Y13, Y14;     \
	VMULPD       Y15, Y14, Y14;    \
	VADDPD       Y14, Y3, Y3

// Loads columns j..j+3 (CX) of the eight inputs whose slice headers make
// up the table at SI and transposes them into one vector per column,
// lane k being input k: inputs 0-3 of columns j..j+3 land in Y4, Y5, Y6
// and Y7, inputs 4-7 in Y10, Y11, Y8 and Y9.
#define LOAD8T \
	MOVQ       0(SI), AX;          \
	MOVQ       24(SI), R11;        \
	MOVQ       48(SI), R12;        \
	MOVQ       72(SI), R13;        \
	VMOVUPD    (AX)(CX*8), Y4;     \
	VMOVUPD    (R11)(CX*8), Y5;    \
	VMOVUPD    (R12)(CX*8), Y6;    \
	VMOVUPD    (R13)(CX*8), Y7;    \
	VUNPCKLPD  Y5, Y4, Y8;         \
	VUNPCKHPD  Y5, Y4, Y9;         \
	VUNPCKLPD  Y7, Y6, Y10;        \
	VUNPCKHPD  Y7, Y6, Y11;        \
	VPERM2F128 $0x20, Y10, Y8, Y4; \
	VPERM2F128 $0x20, Y11, Y9, Y5; \
	VPERM2F128 $0x31, Y10, Y8, Y6; \
	VPERM2F128 $0x31, Y11, Y9, Y7; \
	MOVQ       96(SI), AX;         \
	MOVQ       120(SI), R11;       \
	MOVQ       144(SI), R12;       \
	MOVQ       168(SI), R13;       \
	VMOVUPD    (AX)(CX*8), Y8;     \
	VMOVUPD    (R11)(CX*8), Y9;    \
	VMOVUPD    (R12)(CX*8), Y10;   \
	VMOVUPD    (R13)(CX*8), Y11;   \
	VUNPCKLPD  Y9, Y8, Y12;        \
	VUNPCKHPD  Y9, Y8, Y13;        \
	VUNPCKLPD  Y11, Y10, Y8;       \
	VUNPCKHPD  Y11, Y10, Y9;       \
	VPERM2F128 $0x20, Y8, Y12, Y10; \
	VPERM2F128 $0x20, Y9, Y13, Y11; \
	VPERM2F128 $0x31, Y8, Y12, Y8;  \
	VPERM2F128 $0x31, Y9, Y13, Y9

// Loads column j (CX) of the four inputs at o0..o3 bytes into the table
// at SI into y, lane k being the k-th of them; xa is y's low half and xb
// a scratch register.
#define GATHER4(o0, o1, o2, o3, xa, xb, y) \
	MOVQ        o0(SI), AX;         \
	VMOVSD      (AX)(CX*8), xa;     \
	MOVQ        o1(SI), AX;         \
	VMOVHPD     (AX)(CX*8), xa, xa; \
	MOVQ        o2(SI), AX;         \
	VMOVSD      (AX)(CX*8), xb;     \
	MOVQ        o3(SI), AX;         \
	VMOVHPD     (AX)(CX*8), xb, xb; \
	VINSERTF128 $1, xb, y, y

// Stores the four lanes of y (low half x) to element R9 of the output
// slices whose headers sit at o0..o3 bytes into the table at DI.
#define STORE4(o0, o1, o2, o3, x, y) \
	MOVQ         o0(DI), AX;         \
	VMOVSD       x, (AX)(R9*8);      \
	MOVQ         o1(DI), AX;         \
	VMOVHPD      x, (AX)(R9*8);      \
	VEXTRACTF128 $1, y, X8;          \
	MOVQ         o2(DI), AX;         \
	VMOVSD       X8, (AX)(R9*8);     \
	MOVQ         o3(DI), AX;         \
	VMOVHPD      X8, (AX)(R9*8)

// func fusedSweepAVX(outs, us *[8][]float64, totals *[8]float64, diff, sum, mask []float64, rows, cols int, vdd float64)
//
// The crossbar read for eight inputs at once, lane k of a vector being
// input us[k]: diff and sum are dense rows x cols, rows, cols >= 1, each
// input holds cols elements and each output at least rows, and mask is
// empty or holds cols elements. For each row i the output chains start
// at +0 and add (diff_ij·u_j)·vdd for j = 0, 1, ...; the total chains
// start at +0 once and add (sum_ij·u_j)·vdd in the same order, row after
// row, then (mask_j·u_j)·vdd. Row i's outputs go to outs[k][i], the
// totals to totals[k]. Four columns at a time are loaded from each input
// and transposed into one vector per column and four inputs; the last
// cols mod 4 columns are gathered one at a time.
//
// Registers: SI the input table, DI the output table, BX and R8 diff and
// sum at row i (R8 the mask in the mask pass), CX the column j, DX cols
// rounded down to four, R9 the row i, AX R11 R12 R13 input pointers,
// Y0 Y1 row i's output chains (inputs 0-3, 4-7), Y2 Y3 the total chains,
// Y4-Y11 input columns, Y12 Y13 broadcast conductances, Y14 a product,
// Y15 vdd.
TEXT ·fusedSweepAVX(SB), NOSPLIT, $0-120
	MOVQ         outs+0(FP), DI
	MOVQ         us+8(FP), SI
	MOVQ         diff_base+24(FP), BX
	MOVQ         sum_base+48(FP), R8
	MOVQ         cols+104(FP), DX
	ANDQ         $-4, DX
	VBROADCASTSD vdd+112(FP), Y15
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	XORQ         R9, R9

row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   CX, CX

rowquad:
	CMPQ CX, DX
	JGE  rowtail
	LOAD8T
	COL(0, Y4, Y10)
	COL(8, Y5, Y11)
	COL(16, Y6, Y8)
	COL(24, Y7, Y9)
	ADDQ $4, CX
	JMP  rowquad

rowtail:
	CMPQ    CX, cols+104(FP)
	JGE     rowdone
	GATHER4(0, 24, 48, 72, X4, X5, Y4)
	GATHER4(96, 120, 144, 168, X10, X11, Y10)
	COL(0, Y4, Y10)
	INCQ    CX
	JMP     rowtail

rowdone:
	STORE4(0, 24, 48, 72, X0, Y0)
	STORE4(96, 120, 144, 168, X1, Y1)
	MOVQ cols+104(FP), AX
	LEAQ (BX)(AX*8), BX
	LEAQ (R8)(AX*8), R8
	INCQ R9
	CMPQ R9, rows+96(FP)
	JL   row

	CMPQ mask_len+80(FP), $0
	JE   done
	MOVQ mask_base+72(FP), R8
	XORQ CX, CX

maskquad:
	CMPQ CX, DX
	JGE  masktail
	LOAD8T
	MCOL(0, Y4, Y10)
	MCOL(8, Y5, Y11)
	MCOL(16, Y6, Y8)
	MCOL(24, Y7, Y9)
	ADDQ $4, CX
	JMP  maskquad

masktail:
	CMPQ    CX, cols+104(FP)
	JGE     done
	GATHER4(0, 24, 48, 72, X4, X5, Y4)
	GATHER4(96, 120, 144, 168, X10, X11, Y10)
	MCOL(0, Y4, Y10)
	INCQ    CX
	JMP     masktail

done:
	MOVQ    totals+16(FP), AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	VZEROUPPER
	RET
