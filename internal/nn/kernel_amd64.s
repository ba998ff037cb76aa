#include "textflag.h"

// Every product has the weight (MulVec) or the scale (axpy) as its first
// source, and every sum the accumulator. That order decides which payload
// a NaN result keeps; kernel_test.go's reference loops spell it out. There
// is no FMA: each term is rounded after the product and after the sum, as
// in the Go loops. Every loop head is aligned to 32 bytes, so the loops'
// speed does not depend on where the linker places them.

// The MulVec macros work on four rows at once, at P, P+BX, P+2·BX and
// P+R9 (R9 = 3·BX, BX the row stride in bytes).

// COLS2 loads columns j and j+1 of the four rows (XA/YA, XB/YB are
// scratch) and transposes them: C0 gets column j, C1 column j+1.
#define COLS2(P, XA, YA, XB, YB, C0, C1) \
	VMOVUPD     (P), XA; \
	VINSERTF128 $1, (P)(BX*2), YA, YA; \
	VMOVUPD     (P)(BX*1), XB; \
	VINSERTF128 $1, (P)(R9*1), YB, YB; \
	VUNPCKLPD   YB, YA, C0; \
	VUNPCKHPD   YB, YA, C1

// MAC2 adds C0·x[j] and then C1·x[j+1] to ACC; Y8 and Y9 hold x[j] and
// x[j+1] in every lane.
#define MAC2(C0, C1, ACC) \
	VMULPD Y8, C0, C0; \
	VADDPD C0, ACC, ACC; \
	VMULPD Y9, C1, C1; \
	VADDPD C1, ACC, ACC

// MAC1 loads the last, odd column of the four rows into YA (XA/XB
// scratch) and adds its products with x[j] (in Y8) to ACC.
#define MAC1(P, XA, YA, XB, ACC) \
	VMOVSD      (P), XA; \
	VMOVHPD     (P)(BX*1), XA, XA; \
	VMOVSD      (P)(BX*2), XB; \
	VMOVHPD     (P)(R9*1), XB, XB; \
	VINSERTF128 $1, XB, YA, YA; \
	VMULPD      Y8, YA, YA; \
	VADDPD      YA, ACC, ACC

// func mulVecAVX(w, x, y []float64)
// y[i] = Σ_j w[i·len(x)+j]·x[j] in ascending j. Rows go in blocks of 8,
// then one of 4, then one at a time; the 4-row block halves the time of a
// layer with 4 to 7 outputs, such as the Pensieve actor's 6. A block
// keeps one accumulator per four rows; each step loads two columns of
// every row, transposes them into one register per column and four rows,
// and adds column j's products before column j+1's.
TEXT ·mulVecAVX(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), R8
	MOVQ x_len+32(FP), DX
	MOVQ y_base+48(FP), DI
	MOVQ y_len+56(FP), R11
	MOVQ DX, BX
	SHLQ $3, BX            // row stride in bytes
	LEAQ (BX)(BX*2), R9    // three strides

	PCALIGN $32
block8:
	CMPQ   R11, $8
	JLT    block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R8, R12
	LEAQ   (R8)(BX*4), R13
	MOVQ   x_base+24(FP), AX
	MOVQ   DX, CX
	SHRQ   $1, CX
	JZ     odd8

	PCALIGN $32
pairs8:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	COLS2(R12, X4, Y4, X5, Y5, Y10, Y11)
	COLS2(R13, X6, Y6, X7, Y7, Y12, Y13)
	MAC2(Y10, Y11, Y0)
	MAC2(Y12, Y13, Y1)
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $16, AX
	DECQ CX
	JNZ  pairs8

odd8:
	TESTQ $1, DX
	JZ    store8
	VBROADCASTSD (AX), Y8
	MAC1(R12, X4, Y4, X5, Y0)
	MAC1(R13, X6, Y6, X7, Y1)

store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (R8)(BX*8), R8
	SUBQ    $8, R11
	JMP     block8

block4:
	CMPQ   R11, $4
	JLT    rows1
	VXORPD Y0, Y0, Y0
	MOVQ   R8, R12
	MOVQ   x_base+24(FP), AX
	MOVQ   DX, CX
	SHRQ   $1, CX
	JZ     odd4

	PCALIGN $32
pairs4:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	COLS2(R12, X4, Y4, X5, Y5, Y10, Y11)
	MAC2(Y10, Y11, Y0)
	ADDQ $16, R12
	ADDQ $16, AX
	DECQ CX
	JNZ  pairs4

odd4:
	TESTQ $1, DX
	JZ    store4
	VBROADCASTSD (AX), Y8
	MAC1(R12, X4, Y4, X5, Y0)

store4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R8)(BX*4), R8
	SUBQ    $4, R11

	PCALIGN $32
rows1:
	TESTQ  R11, R11
	JZ     done
	VXORPD X0, X0, X0
	MOVQ   R8, R12
	MOVQ   x_base+24(FP), AX
	MOVQ   DX, CX
	TESTQ  CX, CX
	JZ     store1

	PCALIGN $32
cols1:
	VMOVSD (R12), X4
	VMULSD (AX), X4, X4
	VADDSD X4, X0, X0
	ADDQ   $8, R12
	ADDQ   $8, AX
	DECQ   CX
	JNZ    cols1

store1:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   BX, R8
	DECQ   R11
	JMP    rows1

done:
	VZEROUPPER
	RET

// func axpyAVX(a float64, x, y []float64)
// y[j] += a·x[j] for j < len(x); len(y) == len(x). Eight entries a step,
// then four, then one at a time.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD a+0(FP), Y0
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           quad

	PCALIGN $32
eights:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y1, Y0, Y1
	VMULPD  Y2, Y0, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    DX
	JNZ     eights

quad:
	TESTQ   $4, CX
	JZ      tail
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD (DI), Y3
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

tail:
	ANDQ $3, CX
	JZ   end

	PCALIGN $32
ones:
	VMOVSD (SI), X1
	VMULSD X1, X0, X1
	VMOVSD (DI), X3
	VADDSD X1, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    ones

end:
	VZEROUPPER
	RET

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
