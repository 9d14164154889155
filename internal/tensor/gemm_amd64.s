#include "textflag.h"

// AVX2 micro-kernels for the GEMM contract in gemm.go:
//
//	dst[i·n+j] = Σ_{p<k} a[i·ai + p·ap] · b[p·n+j]  (+ bias[j])
//
// Every lane repeats the scalar loop's arithmetic exactly: VMULPS
// rounds the product, then VADDPS adds it to the accumulator (never
// FMA, which rounds once), p ascending, accumulators starting at +0,
// the bias added last. Masked-off tail lanes are neither read nor
// written. Register use shared by both kernels:
//
//	DI dst row   SI a row (p = 0)   DX b   R8 bias (0: none)
//	R10 ap·4     R11 k              R13 n·4 (one row of b and dst)
//	R14 j·4      AX, BX, CX scratch
//	Y8, Y9 b     Y10 broadcast a    Y11 product    Y15 tail mask

// MULADD(a, b, acc): acc = acc + fl(a·b).
#define MULADD(a, b, acc) VMULPS b, a, Y11; VADDPS Y11, acc, acc

// tailMask holds eight all-ones words, then eight zeros: the eight
// words at byte offset 32 - 4r have exactly their first r lanes set.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func gemm4AVX2(dst, a, b, bias *float32, ai, ap, k, n int)
//
// Four rows at a, a+ai, a+2ai, a+3ai (R9 = ai·4, R12 = 3·ai·4); their
// accumulators are Y0/Y1, Y2/Y3, Y4/Y5, Y6/Y7.
TEXT ·gemm4AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bias+24(FP), R8
	MOVQ ai+32(FP), R9
	SHLQ $2, R9
	MOVQ ap+40(FP), R10
	SHLQ $2, R10
	MOVQ k+48(FP), R11
	MOVQ n+56(FP), R13
	SHLQ $2, R13
	LEAQ (R9)(R9*2), R12
	XORQ R14, R14

cols16:
	MOVQ R13, AX
	SUBQ R14, AX
	CMPQ AX, $64
	JLT  cols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), CX
	MOVQ   R11, BX

loop16:
	VMOVUPS      (CX), Y8
	VMOVUPS      32(CX), Y9
	VBROADCASTSS (AX), Y10
	MULADD(Y10, Y8, Y0)
	MULADD(Y10, Y9, Y1)
	VBROADCASTSS (AX)(R9*1), Y10
	MULADD(Y10, Y8, Y2)
	MULADD(Y10, Y9, Y3)
	VBROADCASTSS (AX)(R9*2), Y10
	MULADD(Y10, Y8, Y4)
	MULADD(Y10, Y9, Y5)
	VBROADCASTSS (AX)(R12*1), Y10
	MULADD(Y10, Y8, Y6)
	MULADD(Y10, Y9, Y7)
	ADDQ         R10, AX
	ADDQ         R13, CX
	DECQ         BX
	JNZ          loop16

	TESTQ   R8, R8
	JZ      store16
	VMOVUPS (R8)(R14*1), Y8
	VMOVUPS 32(R8)(R14*1), Y9
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VADDPS  Y8, Y6, Y6
	VADDPS  Y9, Y7, Y7

store16:
	LEAQ    (DI)(R14*1), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, (AX)(R13*1)
	VMOVUPS Y3, 32(AX)(R13*1)
	VMOVUPS Y4, (AX)(R13*2)
	VMOVUPS Y5, 32(AX)(R13*2)
	ADDQ    R13, AX
	VMOVUPS Y6, (AX)(R13*2)
	VMOVUPS Y7, 32(AX)(R13*2)
	ADDQ    $64, R14
	JMP     cols16

cols8:
	// AX = bytes of columns left, fewer than 64.
	CMPQ   AX, $32
	JLT    tail4
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), CX
	MOVQ   R11, BX

loop8:
	VMOVUPS      (CX), Y8
	VBROADCASTSS (AX), Y10
	MULADD(Y10, Y8, Y0)
	VBROADCASTSS (AX)(R9*1), Y10
	MULADD(Y10, Y8, Y2)
	VBROADCASTSS (AX)(R9*2), Y10
	MULADD(Y10, Y8, Y4)
	VBROADCASTSS (AX)(R12*1), Y10
	MULADD(Y10, Y8, Y6)
	ADDQ         R10, AX
	ADDQ         R13, CX
	DECQ         BX
	JNZ          loop8

	TESTQ   R8, R8
	JZ      store8
	VMOVUPS (R8)(R14*1), Y8
	VADDPS  Y8, Y0, Y0
	VADDPS  Y8, Y2, Y2
	VADDPS  Y8, Y4, Y4
	VADDPS  Y8, Y6, Y6

store8:
	LEAQ    (DI)(R14*1), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y2, (AX)(R13*1)
	VMOVUPS Y4, (AX)(R13*2)
	ADDQ    R13, AX
	VMOVUPS Y6, (AX)(R13*2)
	ADDQ    $32, R14
	MOVQ    R13, AX
	SUBQ    R14, AX

tail4:
	// AX = bytes of columns left, fewer than 32.
	TESTQ   AX, AX
	JZ      done4
	LEAQ    tailMask<>+32(SB), BX
	SUBQ    AX, BX
	VMOVDQU (BX), Y15
	VXORPS  Y0, Y0, Y0
	VXORPS  Y2, Y2, Y2
	VXORPS  Y4, Y4, Y4
	VXORPS  Y6, Y6, Y6
	MOVQ    SI, AX
	LEAQ    (DX)(R14*1), CX
	MOVQ    R11, BX

looptail4:
	VMASKMOVPS   (CX), Y15, Y8
	VBROADCASTSS (AX), Y10
	MULADD(Y10, Y8, Y0)
	VBROADCASTSS (AX)(R9*1), Y10
	MULADD(Y10, Y8, Y2)
	VBROADCASTSS (AX)(R9*2), Y10
	MULADD(Y10, Y8, Y4)
	VBROADCASTSS (AX)(R12*1), Y10
	MULADD(Y10, Y8, Y6)
	ADDQ         R10, AX
	ADDQ         R13, CX
	DECQ         BX
	JNZ          looptail4

	TESTQ      R8, R8
	JZ         storetail4
	VMASKMOVPS (R8)(R14*1), Y15, Y8
	VADDPS     Y8, Y0, Y0
	VADDPS     Y8, Y2, Y2
	VADDPS     Y8, Y4, Y4
	VADDPS     Y8, Y6, Y6

storetail4:
	LEAQ       (DI)(R14*1), AX
	VMASKMOVPS Y0, Y15, (AX)
	VMASKMOVPS Y2, Y15, (AX)(R13*1)
	VMASKMOVPS Y4, Y15, (AX)(R13*2)
	ADDQ       R13, AX
	VMASKMOVPS Y6, Y15, (AX)(R13*2)

done4:
	VZEROUPPER
	RET

// func gemm1AVX2(dst, a, b, bias *float32, ap, k, n int)
//
// One row at a; accumulators Y0/Y1.
TEXT ·gemm1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bias+24(FP), R8
	MOVQ ap+32(FP), R10
	SHLQ $2, R10
	MOVQ k+40(FP), R11
	MOVQ n+48(FP), R13
	SHLQ $2, R13
	XORQ R14, R14

cols16x1:
	MOVQ   R13, AX
	SUBQ   R14, AX
	CMPQ   AX, $64
	JLT    cols8x1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), CX
	MOVQ   R11, BX

loop16x1:
	VMOVUPS      (CX), Y8
	VMOVUPS      32(CX), Y9
	VBROADCASTSS (AX), Y10
	MULADD(Y10, Y8, Y0)
	MULADD(Y10, Y9, Y1)
	ADDQ         R10, AX
	ADDQ         R13, CX
	DECQ         BX
	JNZ          loop16x1

	TESTQ   R8, R8
	JZ      store16x1
	VMOVUPS (R8)(R14*1), Y8
	VMOVUPS 32(R8)(R14*1), Y9
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1

store16x1:
	VMOVUPS Y0, (DI)(R14*1)
	VMOVUPS Y1, 32(DI)(R14*1)
	ADDQ    $64, R14
	JMP     cols16x1

cols8x1:
	CMPQ   AX, $32
	JLT    tail1
	VXORPS Y0, Y0, Y0
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), CX
	MOVQ   R11, BX

loop8x1:
	VMOVUPS      (CX), Y8
	VBROADCASTSS (AX), Y10
	MULADD(Y10, Y8, Y0)
	ADDQ         R10, AX
	ADDQ         R13, CX
	DECQ         BX
	JNZ          loop8x1

	TESTQ   R8, R8
	JZ      store8x1
	VMOVUPS (R8)(R14*1), Y8
	VADDPS  Y8, Y0, Y0

store8x1:
	VMOVUPS Y0, (DI)(R14*1)
	ADDQ    $32, R14
	MOVQ    R13, AX
	SUBQ    R14, AX

tail1:
	TESTQ   AX, AX
	JZ      done1
	LEAQ    tailMask<>+32(SB), BX
	SUBQ    AX, BX
	VMOVDQU (BX), Y15
	VXORPS  Y0, Y0, Y0
	MOVQ    SI, AX
	LEAQ    (DX)(R14*1), CX
	MOVQ    R11, BX

looptail1:
	VMASKMOVPS   (CX), Y15, Y8
	VBROADCASTSS (AX), Y10
	MULADD(Y10, Y8, Y0)
	ADDQ         R10, AX
	ADDQ         R13, CX
	DECQ         BX
	JNZ          looptail1

	TESTQ      R8, R8
	JZ         storetail1
	VMASKMOVPS (R8)(R14*1), Y15, Y8
	VADDPS     Y8, Y0, Y0

storetail1:
	VMASKMOVPS Y0, Y15, (DI)(R14*1)

done1:
	VZEROUPPER
	RET

// func absMax8AVX2(x *float32, n int) float32
//
// Tensor.AbsMax in eight lanes: |x| by clearing the sign bit, then
// VMAXPS with the running max as its second source, so a NaN element
// leaves the max as it was, as maxAbs's a > m does. Two accumulators of
// sixteen elements, then one block of eight, then the n mod 8 tail
// through tailMask (masked-off lanes load +0). Every lane holds a
// non-NaN value, so the final reduction across lanes is exact in any
// order.
//
//	SI x   DX n·4   BX i·4   Y15 0x7fffffff   Y0, Y1 max
TEXT ·absMax8AVX2(SB), NOSPLIT, $0-20
	MOVQ      x+0(FP), SI
	MOVQ      n+8(FP), DX
	SHLQ      $2, DX
	XORQ      BX, BX
	VPCMPEQD  Y15, Y15, Y15
	VPSRLD    $1, Y15, Y15
	VXORPS    Y0, Y0, Y0
	VXORPS    Y1, Y1, Y1

abs16:
	MOVQ   DX, AX
	SUBQ   BX, AX
	CMPQ   AX, $64
	JLT    abs8
	VANDPS (SI)(BX*1), Y15, Y2
	VANDPS 32(SI)(BX*1), Y15, Y3
	VMAXPS Y0, Y2, Y0
	VMAXPS Y1, Y3, Y1
	ADDQ   $64, BX
	JMP    abs16

abs8:
	CMPQ   AX, $32
	JLT    abstail
	VANDPS (SI)(BX*1), Y15, Y2
	VMAXPS Y0, Y2, Y0
	ADDQ   $32, BX
	SUBQ   $32, AX

abstail:
	TESTQ      AX, AX
	JZ         absreduce
	LEAQ       tailMask<>+32(SB), CX
	SUBQ       AX, CX
	VMOVDQU    (CX), Y14
	VMASKMOVPS (SI)(BX*1), Y14, Y2
	VANDPS     Y15, Y2, Y2
	VMAXPS     Y1, Y2, Y1

absreduce:
	VMAXPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
