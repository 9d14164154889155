#include "textflag.h"

// AVX2 lanes for the Tanh layer (tanh_amd64.go). Every lane repeats
// the scalar code's float operations in its order, each rounded on its
// own (never FMA), so it computes the scalar code's float64 bit for
// bit; commuted operands of an add or multiply change no bit.

// The constants, four lanes each (tanhK in tanh_amd64.go).
#define K_ABS ·tanhK+0(SB)
#define K_SIGN ·tanhK+32(SB)
#define K_LO ·tanhK+64(SB)
#define K_HI ·tanhK+96(SB)
#define K_SCALE ·tanhK+128(SB)
#define K_ROUND ·tanhK+160(SB)
#define K_LN2HI ·tanhK+192(SB)
#define K_LN2LO ·tanhK+224(SB)
#define K_C5 ·tanhK+256(SB)
#define K_C4 ·tanhK+288(SB)
#define K_C3 ·tanhK+320(SB)
#define K_C2 ·tanhK+352(SB)
#define K_ONE ·tanhK+384(SB)
#define K_TWO ·tanhK+416(SB)
#define K_P0 ·tanhK+448(SB)
#define K_P1 ·tanhK+480(SB)
#define K_P2 ·tanhK+512(SB)
#define K_Q0 ·tanhK+544(SB)
#define K_Q1 ·tanhK+576(SB)
#define K_Q2 ·tanhK+608(SB)
#define K_LOW29 ·tanhK+640(SB)
#define K_BAND ·tanhK+672(SB)
#define K_ZERO ·tanhK+704(SB)

// func tanh4AVX2(dst, x *float32, n int) int
//
// Each block of four widens x to float64 (Y0; Y1 = |x|) and computes
// both of math.Tanh's branches in every lane:
//
//   - tanh32's fast path (Y7), the lanes with 0.625 ≤ |x| < 9.011;
//   - ±1, the lanes with |x| ≥ 9.011;
//   - the rational branch (Y14), the lanes with |x| < 0.625 or NaN,
//     which keeps x where x == 0 (so −0 stays −0).
//
// A block whose fast lane lies within 2^12 float64 ulps of a float32
// rounding midpoint stops the kernel: it returns that block's index,
// and the caller computes those four elements with tanh32.
//
//	DI dst   SI x   DX n   BX i   R8 exp2by32
TEXT ·tanh4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), DX
	LEAQ ·exp2by32(SB), R8
	XORQ BX, BX
	JMP  next

block:
	VCVTPS2PD (SI)(BX*4), Y0
	VANDPD    K_ABS, Y0, Y1

	// kf = a·(64/ln2) + 1.5·2^52 carries k in its low 10 bits (Y2).
	VMULPD K_SCALE, Y1, Y2
	VADDPD K_ROUND, Y2, Y2
	VSUBPD K_ROUND, Y2, Y3    // k as a float64
	VADDPD Y1, Y1, Y4         // 2a
	VMULPD K_LN2HI, Y3, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD K_LN2LO, Y3, Y5
	VSUBPD Y5, Y4, Y4         // r = (2a − k·hi) − k·lo

	// p = (1 + r) + r²·((1/2 + r/6) + r²·(1/24 + r/120))
	VMULPD Y4, Y4, Y5         // r²
	VMULPD K_C5, Y4, Y6
	VADDPD K_C4, Y6, Y6
	VMULPD K_C3, Y4, Y7
	VADDPD K_C2, Y7, Y7
	VMULPD Y6, Y5, Y6
	VADDPD Y6, Y7, Y7
	VMULPD Y7, Y5, Y7
	VADDPD K_ONE, Y4, Y6
	VADDPD Y7, Y6, Y6         // p

	// s = 2^(k/32)·p: exp2by32[k&31] with k>>5 added to its exponent.
	VPSLLQ     $59, Y2, Y3
	VPSRLQ     $59, Y3, Y3    // k & 31
	VPCMPEQQ   Y5, Y5, Y5     // gather every lane
	VGATHERQPD Y5, (R8)(Y3*8), Y7
	VPSLLQ     $54, Y2, Y2
	VPSRLQ     $59, Y2, Y2
	VPSLLQ     $52, Y2, Y2    // k>>5<<52
	VPADDQ     Y2, Y7, Y7
	VMULPD     Y6, Y7, Y7     // s

	// y = 1 − 2/(s+1)
	VADDPD  K_ONE, Y7, Y7
	VMOVUPD K_TWO, Y2
	VDIVPD  Y7, Y2, Y7
	VMOVUPD K_ONE, Y2
	VSUBPD  Y7, Y2, Y7

	// The guard: y's low 29 bits within 2^12 of the midpoint 2^28, in
	// a lane with 0.625 ≤ a < 9.011 (Y11).
	VPAND    K_LOW29, Y7, Y8
	VPSUBQ   K_BAND, Y8, Y8
	VPSRLQ   $13, Y8, Y8
	VPCMPEQQ K_ZERO, Y8, Y8
	VCMPPD   $0x1d, K_LO, Y1, Y9    // a ≥ 0.625, false for NaN
	VCMPPD   $0x1d, K_HI, Y1, Y10   // a ≥ 9.011
	VPANDN   Y9, Y10, Y11
	VPTEST   Y11, Y8
	JNZ      done

	// ±1 past 9.011, then x's sign on both.
	VBLENDVPD Y10, K_ONE, Y7, Y7
	VANDPD    K_SIGN, Y0, Y2
	VORPD     Y2, Y7, Y7

	// math.Tanh's rational branch: x + x·s·num/den with s = x·x,
	// num = (P0·s + P1)·s + P2, den = ((s + Q0)·s + Q1)·s + Q2.
	VMULPD Y0, Y0, Y12        // s
	VMULPD K_P0, Y12, Y13
	VADDPD K_P1, Y13, Y13
	VMULPD Y12, Y13, Y13
	VADDPD K_P2, Y13, Y13     // num
	VMULPD Y12, Y0, Y14
	VMULPD Y13, Y14, Y14      // x·s·num
	VADDPD K_Q0, Y12, Y13
	VMULPD Y12, Y13, Y13
	VADDPD K_Q1, Y13, Y13
	VMULPD Y12, Y13, Y13
	VADDPD K_Q2, Y13, Y13     // den
	VDIVPD Y13, Y14, Y14
	VADDPD Y14, Y0, Y14
	VCMPPD $0x00, K_ZERO, Y0, Y13   // x == 0 keeps x
	VBLENDVPD Y13, Y0, Y14, Y14

	VBLENDVPD  Y9, Y7, Y14, Y14
	VCVTPD2PSY Y14, X14
	VMOVUPS    X14, (DI)(BX*4)
	ADDQ       $4, BX

next:
	CMPQ BX, DX
	JLT  block

done:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// one32 is float32 1.
DATA one32<>+0(SB)/4, $0x3f800000
GLOBL one32<>(SB), RODATA|NOPTR, $4

// func tanhGrad8AVX2(dst, grad, y *float32, n int)
//
// dst = grad·(1 − y·y), eight lanes at a time.
TEXT ·tanhGrad8AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         y+16(FP), R8
	MOVQ         n+24(FP), DX
	VBROADCASTSS one32<>(SB), Y15
	XORQ         BX, BX
	JMP          gnext

gblock:
	VMOVUPS (R8)(BX*4), Y0
	VMULPS  Y0, Y0, Y0
	VSUBPS  Y0, Y15, Y0
	VMULPS  (SI)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX

gnext:
	CMPQ BX, DX
	JLT  gblock
	VZEROUPPER
	RET
