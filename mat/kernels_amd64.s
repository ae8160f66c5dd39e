#include "textflag.h"

// AVX2 kernels for the loops in kernels.go. Each lane runs the Go loop's
// statement for one element: VMULPD and VADDPD/VSUBPD round like MULSD
// and ADDSD/SUBSD, no FMA is used, and no sum is reassociated, so every
// result has the Go loop's bits. Element counts not divisible by four
// finish in a scalar tail. Every kernel ends with VZEROUPPER before it
// returns to SSE code.

// REDUCE leaves (l0+l1)+(l2+l3) of the lanes of acc in the low lane of
// its lower half lo: Dot's (s0+s1)+(s2+s3). tmp is clobbered.
#define REDUCE(acc, lo, tmp) \
	VEXTRACTF128 $1, acc, tmp; \
	VHADDPD      tmp, lo, lo;  \
	VHADDPD      lo, lo, lo

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotRowsAVX2(dst, x, a []float64, stride int)
//
// dst[r] = Dot(row r, x), row r at a + r·stride. Four rows share each
// load of x; each row sums in one YMM accumulator.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	MOVQ a_base+48(FP), R8
	MOVQ stride+72(FP), R9
	SHLQ $3, R9
	MOVQ DX, R10
	ANDQ $-4, R10

rows4:
	CMPQ CX, $4
	JLT  rows1
	LEAQ (R8)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	JMP  rows4cond

rows4loop:
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R11)(AX*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R12)(AX*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R13)(AX*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX

rows4cond:
	CMPQ AX, R10
	JLT  rows4loop
	REDUCE(Y0, X0, X5)
	REDUCE(Y1, X1, X5)
	REDUCE(Y2, X2, X5)
	REDUCE(Y3, X3, X5)
	JMP  rows4tailcond

rows4tail:
	VMOVSD (SI)(AX*8), X4
	VMULSD (R8)(AX*8), X4, X5
	VADDSD X5, X0, X0
	VMULSD (R11)(AX*8), X4, X6
	VADDSD X6, X1, X1
	VMULSD (R12)(AX*8), X4, X7
	VADDSD X7, X2, X2
	VMULSD (R13)(AX*8), X4, X8
	VADDSD X8, X3, X3
	INCQ   AX

rows4tailcond:
	CMPQ   AX, DX
	JLT    rows4tail
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ   $32, DI
	LEAQ   (R13)(R9*1), R8
	SUBQ   $4, CX
	JMP    rows4

rows1:
	TESTQ  CX, CX
	JZ     dotdone
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	JMP    rows1cond

rows1loop:
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $4, AX

rows1cond:
	CMPQ AX, R10
	JLT  rows1loop
	REDUCE(Y0, X0, X5)
	JMP  rows1tailcond

rows1tail:
	VMOVSD (SI)(AX*8), X4
	VMULSD (R8)(AX*8), X4, X5
	VADDSD X5, X0, X0
	INCQ   AX

rows1tailcond:
	CMPQ   AX, DX
	JLT    rows1tail
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   R9, R8
	DECQ   CX
	JMP    rows1

dotdone:
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y []float64)
//
// y[i] += alpha·x[i] for i < len(x).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, R10
	ANDQ         $-4, R10
	XORQ         AX, AX
	JMP          axpy4cond

axpy4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

axpy4cond:
	CMPQ AX, R10
	JLT  axpy4
	JMP  axpy1cond

axpy1:
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX

axpy1cond:
	CMPQ AX, CX
	JLT  axpy1
	VZEROUPPER
	RET

// func axpyRowsAVX2(y, a, u []float64, alpha float64)
//
// For each i < len(u) with u[i] != 0, in order: y += (alpha·u[i])·row i,
// row i at a + i·len(y).
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVQ   a_base+24(FP), SI
	MOVQ   u_base+48(FP), R8
	MOVQ   u_len+56(FP), DX
	VMOVSD alpha+72(FP), X9
	VXORPD X10, X10, X10
	MOVQ   CX, R10
	ANDQ   $-4, R10
	XORQ   BX, BX
	JMP    urowcond

urow:
	VMOVSD   (R8)(BX*8), X2
	VUCOMISD X10, X2
	JNE      uuse
	JPS      uuse
	JMP      unext

uuse:
	VMULSD       X2, X9, X0
	VBROADCASTSD X0, Y0
	XORQ         AX, AX
	JMP          u4cond

u4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

u4cond:
	CMPQ AX, R10
	JLT  u4
	JMP  u1cond

u1:
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX

u1cond:
	CMPQ AX, CX
	JLT  u1

unext:
	LEAQ (SI)(CX*8), SI
	INCQ BX

urowcond:
	CMPQ BX, DX
	JLT  urow
	VZEROUPPER
	RET

// func addOuterAVX2(dst, v []float64, s float64)
//
// Row i of the len(v)×len(v) dst gains (s·v[i])·v.
TEXT ·addOuterAVX2(SB), NOSPLIT, $0-56
	MOVQ   dst_base+0(FP), DI
	MOVQ   v_base+24(FP), SI
	MOVQ   v_len+32(FP), CX
	VMOVSD s+48(FP), X9
	MOVQ   CX, R10
	ANDQ   $-4, R10
	XORQ   BX, BX
	JMP    orowcond

orow:
	VMULSD       (SI)(BX*8), X9, X0
	VBROADCASTSD X0, Y0
	XORQ         AX, AX
	JMP          o4cond

o4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

o4cond:
	CMPQ AX, R10
	JLT  o4
	JMP  o1cond

o1:
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX

o1cond:
	CMPQ AX, CX
	JLT  o1
	LEAQ (DI)(CX*8), DI
	INCQ BX

orowcond:
	CMPQ BX, CX
	JLT  orow
	VZEROUPPER
	RET

// func subRowsAVX2(a []float64, stride int, g, x []float64)
//
// Row r at a + r·stride loses g[r]·x, for r < len(g).
TEXT ·subRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), DI
	MOVQ stride+24(FP), R9
	SHLQ $3, R9
	MOVQ g_base+32(FP), R8
	MOVQ g_len+40(FP), DX
	MOVQ x_base+56(FP), SI
	MOVQ x_len+64(FP), CX
	MOVQ CX, R10
	ANDQ $-4, R10
	XORQ BX, BX
	JMP  srowcond

srow:
	VBROADCASTSD (R8)(BX*8), Y0
	XORQ         AX, AX
	JMP          s4cond

s4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

s4cond:
	CMPQ AX, R10
	JLT  s4
	JMP  s1cond

s1:
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X2
	VSUBSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX

s1cond:
	CMPQ AX, CX
	JLT  s1
	ADDQ R9, DI
	INCQ BX

srowcond:
	CMPQ BX, DX
	JLT  srow
	VZEROUPPER
	RET

// func rotateRowsAVX2(p, q []float64, c, s float64)
//
// p[j], q[j] = c·p[j] − s·q[j], s·p[j] + c·q[j] for j < len(p).
TEXT ·rotateRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ         p_base+0(FP), DI
	MOVQ         p_len+8(FP), CX
	MOVQ         q_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	MOVQ         CX, R10
	ANDQ         $-4, R10
	XORQ         AX, AX
	JMP          rot4cond

rot4:
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y3
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y2, Y1, Y6
	VMULPD  Y3, Y0, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ    $4, AX

rot4cond:
	CMPQ AX, R10
	JLT  rot4
	JMP  rot1cond

rot1:
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X3
	VMULSD X2, X0, X4
	VMULSD X3, X1, X5
	VSUBSD X5, X4, X4
	VMULSD X2, X1, X6
	VMULSD X3, X0, X7
	VADDSD X7, X6, X6
	VMOVSD X4, (DI)(AX*8)
	VMOVSD X6, (SI)(AX*8)
	INCQ   AX

rot1cond:
	CMPQ AX, CX
	JLT  rot1
	VZEROUPPER
	RET

// func rank2AVX2(a []float64, stride int, v, p []float64)
//
// For j < m = len(v), row j of a from its diagonal on loses
// v[j]·p[j:m] + p[j]·v[j:m].
TEXT ·rank2AVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), DI
	MOVQ stride+24(FP), R9
	INCQ R9
	SHLQ $3, R9
	MOVQ v_base+32(FP), SI
	MOVQ v_len+40(FP), DX
	MOVQ p_base+56(FP), R8

r2row:
	TESTQ        DX, DX
	JZ           r2done
	VBROADCASTSD (SI), Y0
	VBROADCASTSD (R8), Y1
	MOVQ         DX, R10
	ANDQ         $-4, R10
	XORQ         AX, AX
	JMP          r24cond

r24:
	VMULPD  (R8)(AX*8), Y0, Y2
	VMULPD  (SI)(AX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

r24cond:
	CMPQ AX, R10
	JLT  r24
	JMP  r21cond

r21:
	VMULSD (R8)(AX*8), X0, X2
	VMULSD (SI)(AX*8), X1, X3
	VADDSD X3, X2, X2
	VMOVSD (DI)(AX*8), X4
	VSUBSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX

r21cond:
	CMPQ AX, DX
	JLT  r21
	ADDQ R9, DI
	ADDQ $8, SI
	ADDQ $8, R8
	DECQ DX
	JMP  r2row

r2done:
	VZEROUPPER
	RET

// func subAVX2(dst, a, b []float64)
//
// dst[i] = a[i] − b[i] for i < len(a).
TEXT ·subAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	MOVQ CX, R10
	ANDQ $-4, R10
	XORQ AX, AX
	JMP  sub4cond

sub4:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

sub4cond:
	CMPQ AX, R10
	JLT  sub4
	JMP  sub1cond

sub1:
	VMOVSD (SI)(AX*8), X0
	VSUBSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

sub1cond:
	CMPQ AX, CX
	JLT  sub1
	VZEROUPPER
	RET
