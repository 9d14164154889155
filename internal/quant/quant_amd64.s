#include "textflag.h"

// AVX2 lanes for the NPU emulation (quant_amd64.go). Every lane repeats
// the scalar code's operations in its order, each rounded on its own
// (never FMA), so every output has the portable loop's bits
// (DESIGN.md §14). Register use shared by both kernels:
//
//	Y15 0x7fffffff   Y6 127 (float32)   Y5 tail mask
//	BX i·4   DX n·4   AX, CX scratch

// quantK holds the float64 constants, four lanes each, then 127 as a
// float32.
#define K_HALF quantK<>+0(SB)
#define K_ONE quantK<>+32(SB)
#define K_127 quantK<>+64(SB)
#define K_M127 quantK<>+96(SB)
#define K_127F quantK<>+128(SB)
DATA quantK<>+0(SB)/8, $0x3fe0000000000000
DATA quantK<>+8(SB)/8, $0x3fe0000000000000
DATA quantK<>+16(SB)/8, $0x3fe0000000000000
DATA quantK<>+24(SB)/8, $0x3fe0000000000000
DATA quantK<>+32(SB)/8, $0x3ff0000000000000
DATA quantK<>+40(SB)/8, $0x3ff0000000000000
DATA quantK<>+48(SB)/8, $0x3ff0000000000000
DATA quantK<>+56(SB)/8, $0x3ff0000000000000
DATA quantK<>+64(SB)/8, $0x405fc00000000000
DATA quantK<>+72(SB)/8, $0x405fc00000000000
DATA quantK<>+80(SB)/8, $0x405fc00000000000
DATA quantK<>+88(SB)/8, $0x405fc00000000000
DATA quantK<>+96(SB)/8, $0xc05fc00000000000
DATA quantK<>+104(SB)/8, $0xc05fc00000000000
DATA quantK<>+112(SB)/8, $0xc05fc00000000000
DATA quantK<>+120(SB)/8, $0xc05fc00000000000
DATA quantK<>+128(SB)/4, $0x42fe0000
GLOBL quantK<>(SB), RODATA|NOPTR, $132

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

// TAIL loads Y5 with the mask of the first AX/4 lanes.
#define TAIL \
	LEAQ    tailMask<>+32(SB), CX; \
	SUBQ    AX, CX;                \
	VMOVDQU (CX), Y5

// GRIDCODE sets Y3 = gridCode(Y1), eight lanes, with Y2 as scratch:
// a = min(127, |y|) (NaN stays NaN, as Go's min keeps it), widened to
// float64, plus 0.5, truncated to int32, y's sign put back on the
// integer ((r ^ neg) − neg with neg = 0 or −1), and back to float32,
// so a code of 0 is +0.
#define GRIDCODE \
	VANDPS       Y15, Y1, Y2;    \
	VMINPS       Y2, Y6, Y2;     \
	VCVTPS2PD    X2, Y3;         \
	VEXTRACTF128 $1, Y2, X2;     \
	VCVTPS2PD    X2, Y2;         \
	VADDPD       K_HALF, Y3, Y3; \
	VADDPD       K_HALF, Y2, Y2; \
	VCVTTPD2DQY  Y3, X3;         \
	VCVTTPD2DQY  Y2, X2;         \
	VINSERTI128  $1, X2, Y3, Y3; \
	VPSRAD       $31, Y1, Y2;    \
	VPXOR        Y2, Y3, Y3;     \
	VPSUBD       Y2, Y3, Y3;     \
	VCVTDQ2PS    Y3, Y3

// FAKEQUANT sets Y3 = gridCode(v·inv)·s for v in Y0, or v where v is
// NaN (Y14 s, Y13 inv).
#define FAKEQUANT \
	VMULPS    Y13, Y0, Y1;    \
	GRIDCODE;                 \
	VMULPS    Y14, Y3, Y3;    \
	VCMPPS    $3, Y0, Y0, Y2; \
	VBLENDVPS Y2, Y0, Y3, Y3

// func fakeQuant8AVX2(dst, src *float32, n int, s, inv float32)
//
// fakeQuantRange's main branch: dst[i] = gridCode(src[i]·inv)·s, or
// src[i] where it is NaN, for i < n; the n mod 8 tail through Y5.
//
//	DI dst   SI src   Y14 s   Y13 inv
TEXT ·fakeQuant8AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSS s+24(FP), Y14
	VBROADCASTSS inv+28(FP), Y13
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $1, Y15, Y15
	VBROADCASTSS K_127F, Y6
	SHLQ         $2, DX
	XORQ         BX, BX
	JMP          fqnext

fqblock:
	VMOVUPS (SI)(BX*1), Y0
	FAKEQUANT
	VMOVUPS Y3, (DI)(BX*1)
	ADDQ    $32, BX

fqnext:
	MOVQ DX, AX
	SUBQ BX, AX
	CMPQ AX, $32
	JGE  fqblock
	TESTQ AX, AX
	JZ    fqdone
	TAIL
	VMASKMOVPS (SI)(BX*1), Y5, Y0
	FAKEQUANT
	VMASKMOVPS Y3, Y5, (DI)(BX*1)

fqdone:
	VZEROUPPER
	RET

// SGDX sets Y4 = (row − lr·q)·inv, the float32 x of Int8SGD's update,
// for the gradient v in Y0 and the weights in Y4: q = gridCode(v·ginv)
// ·gs, or v where v is NaN. Y1 gets the lanes where x is NaN.
#define SGDX \
	VMULPS    Y11, Y0, Y1;    \
	GRIDCODE;                 \
	VMULPS    Y10, Y3, Y3;    \
	VCMPPS    $3, Y0, Y0, Y2; \
	VBLENDVPS Y2, Y0, Y3, Y3; \
	VMULPS    Y14, Y3, Y3;    \
	VSUBPS    Y3, Y4, Y4;     \
	VMULPS    Y9, Y4, Y4;     \
	VCMPPS    $3, Y4, Y4, Y1

// SGDW sets Y1 = clampInt8(r)·scale for x in Y4, in two halves of four
// float64 lanes: r = ⌊x⌋ + 1 where the draw u < x − ⌊x⌋ (false for the
// NaN fraction of an infinite x), else ⌊x⌋ + 0, which turns −0 into +0
// as the int8 conversion does; then r clamped to [−127, 127]. Y2 gets
// the lanes with |w| ≥ limit, which for a non-NaN w is w ≥ limit or
// w ≤ −limit.
#define SGDW \
	VCVTPS2PD    X4, Y0;              \
	VEXTRACTF128 $1, Y4, X4;          \
	VCVTPS2PD    X4, Y4;              \
	VROUNDPD     $1, Y0, Y1;          \
	VSUBPD       Y1, Y0, Y0;          \
	VMOVUPD      (R8)(BX*2), Y2;      \
	VCMPPD       $0x11, Y0, Y2, Y2;   \
	VANDPD       K_ONE, Y2, Y2;       \
	VADDPD       Y2, Y1, Y1;          \
	VMINPD       K_127, Y1, Y1;       \
	VMAXPD       K_M127, Y1, Y1;      \
	VROUNDPD     $1, Y4, Y3;          \
	VSUBPD       Y3, Y4, Y4;          \
	VMOVUPD      32(R8)(BX*2), Y2;    \
	VCMPPD       $0x11, Y4, Y2, Y2;   \
	VANDPD       K_ONE, Y2, Y2;       \
	VADDPD       Y2, Y3, Y3;          \
	VMINPD       K_127, Y3, Y3;       \
	VMAXPD       K_M127, Y3, Y3;      \
	VCVTPD2PSY   Y1, X1;              \
	VCVTPD2PSY   Y3, X3;              \
	VINSERTF128  $1, X3, Y1, Y1;      \
	VMULPS       Y8, Y1, Y1;          \
	VANDPS       Y15, Y1, Y2;         \
	VCMPPS       $0x1d, Y7, Y2, Y2

// func sgd8AVX2(row, grad *float32, u *float64, n int, lr, gs, ginv, scale, inv, limit float32) (done int, regrid bool)
//
// Int8SGD's update of one row, eight lanes at a time, with u holding
// each element's uniform draw (at least n rounded up to eight of them).
// It returns n, or the index of the first block with a NaN x, which it
// leaves unwritten with every block after it; regrid reports whether a
// weight it wrote reached ±limit.
//
//	DI row   SI grad   R8 u   R9 regrid lanes
//	Y14 lr   Y11 ginv   Y10 gs   Y9 inv   Y8 scale   Y7 limit
TEXT ·sgd8AVX2(SB), NOSPLIT, $0-65
	MOVQ         row+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         u+16(FP), R8
	MOVQ         n+24(FP), DX
	VBROADCASTSS lr+32(FP), Y14
	VBROADCASTSS gs+36(FP), Y10
	VBROADCASTSS ginv+40(FP), Y11
	VBROADCASTSS scale+44(FP), Y8
	VBROADCASTSS inv+48(FP), Y9
	VBROADCASTSS limit+52(FP), Y7
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $1, Y15, Y15
	VBROADCASTSS K_127F, Y6
	SHLQ         $2, DX
	XORQ         BX, BX
	XORQ         R9, R9
	JMP          snext

sblock:
	VMOVUPS   (SI)(BX*1), Y0
	VMOVUPS   (DI)(BX*1), Y4
	SGDX
	VMOVMSKPS Y1, AX
	TESTL     AX, AX
	JNZ       sdone
	SGDW
	VMOVUPS   Y1, (DI)(BX*1)
	VMOVMSKPS Y2, AX
	ORL       AX, R9
	ADDQ      $32, BX

snext:
	MOVQ  DX, AX
	SUBQ  BX, AX
	CMPQ  AX, $32
	JGE   sblock
	TESTQ AX, AX
	JZ    sdone

	// The tail: masked-off lanes load a +0 weight and gradient, whose x
	// is +0, or NaN under a zero scale (1/scale = +Inf); their NaN and
	// regrid lanes are masked off, so only the first n mod 8 count.
	TAIL
	VMASKMOVPS (SI)(BX*1), Y5, Y0
	VMASKMOVPS (DI)(BX*1), Y5, Y4
	SGDX
	VANDPS     Y5, Y1, Y1
	VMOVMSKPS  Y1, AX
	TESTL      AX, AX
	JNZ        sdone
	SGDW
	VMASKMOVPS Y1, Y5, (DI)(BX*1)
	VANDPS     Y5, Y2, Y2
	VMOVMSKPS  Y2, AX
	ORL        AX, R9
	MOVQ       DX, BX

sdone:
	SHRQ  $2, BX
	MOVQ  BX, done+56(FP)
	TESTL R9, R9
	SETNE regrid+64(FP)
	VZEROUPPER
	RET
