#include "textflag.h"

// Field kernels for Fp on amd64. The Go kernels in fp.go and
// mont_unrolled.go are the references these are pinned against
// (kernels_test.go), and the fallback on CPUs without ADX.
//
// Every kernel is branch-free on field data, reads every limb of a and
// b before it writes z (so z may alias either operand), and leaves BP
// (the frame pointer) and R15 (the GOT register under -dynlink) alone.

// p, the BLS12-381 base field modulus, little-endian limbs (fpModulus).
DATA p<>+0(SB)/8, $0xb9feffffffffaaab
DATA p<>+8(SB)/8, $0x1eabfffeb153ffff
DATA p<>+16(SB)/8, $0x6730d2a0f6b0f624
DATA p<>+24(SB)/8, $0x64774b84f38512bf
DATA p<>+32(SB)/8, $0x4b1ba7b6434bacd7
DATA p<>+40(SB)/8, $0x1a0111ea397fe69a
GLOBL p<>(SB), RODATA|NOPTR, $48

// -p^-1 mod 2^64 (fpInv).
#define PINV $0x89f3fffcfffcfffd

// MULADD adds a*DX to the accumulator t0..t5 and sets t6 to the top
// word. XORQ zeroes t6 and clears CF and OF; then each limb product's
// low word rides the OF chain (ADOXQ) into t_j and its high word the CF
// chain (ADCXQ) into t_j+1, so the two carries never wait on each
// other. CX holds zero, to fold the last OF into t6.
#define MULADD(t0, t1, t2, t3, t4, t5, t6) \
	XORQ  t6, t6; \
	MULXQ 0(SI), AX, BX; \
	ADOXQ AX, t0; \
	ADCXQ BX, t1; \
	MULXQ 8(SI), AX, BX; \
	ADOXQ AX, t1; \
	ADCXQ BX, t2; \
	MULXQ 16(SI), AX, BX; \
	ADOXQ AX, t2; \
	ADCXQ BX, t3; \
	MULXQ 24(SI), AX, BX; \
	ADOXQ AX, t3; \
	ADCXQ BX, t4; \
	MULXQ 32(SI), AX, BX; \
	ADOXQ AX, t4; \
	ADCXQ BX, t5; \
	MULXQ 40(SI), AX, BX; \
	ADOXQ AX, t5; \
	ADCXQ BX, t6; \
	ADOXQ CX, t6

// REDUCE adds m*p to t0..t6, with m = t0*PINV mod 2^64, which zeroes
// t0: the quotient by 2^64 is left in t1..t6 and t0 is free for the
// next round's top word. IMULQ sets the flags, so XORQ AX, AX clears
// them after it.
#define REDUCE(t0, t1, t2, t3, t4, t5, t6) \
	MOVQ  PINV, DX; \
	IMULQ t0, DX; \
	XORQ  AX, AX; \
	MULXQ p<>+0(SB), AX, BX; \
	ADOXQ AX, t0; \
	ADCXQ BX, t1; \
	MULXQ p<>+8(SB), AX, BX; \
	ADOXQ AX, t1; \
	ADCXQ BX, t2; \
	MULXQ p<>+16(SB), AX, BX; \
	ADOXQ AX, t2; \
	ADCXQ BX, t3; \
	MULXQ p<>+24(SB), AX, BX; \
	ADOXQ AX, t3; \
	ADCXQ BX, t4; \
	MULXQ p<>+32(SB), AX, BX; \
	ADOXQ AX, t4; \
	ADCXQ BX, t5; \
	MULXQ p<>+40(SB), AX, BX; \
	ADOXQ AX, t5; \
	ADCXQ BX, t6; \
	ADOXQ CX, t6

// func fpMontMulADX(z, a, b *Fp)
//
// z = a*b*R^-1 mod p, CIOS over six rounds with MULX, ADCX and ADOX
// (BMI2 and ADX). SI = a, DI = b, DX = the multiplier, AX:BX = one
// limb product, CX = 0. The seven-word accumulator lives in R8..R14 and
// rotates: the register REDUCE frees as t0 becomes the next round's t6,
// so no round moves a word. The < 2p bound of fpMontMul holds after
// every round, so t6 absorbs every carry and one subtraction of p
// finishes the result.
TEXT ·fpMontMulADX(SB), NOSPLIT, $0-24
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	XORQ CX, CX

	// round 0: t = a*b[0], R8..R14 (the add chain starts from zero)
	MOVQ  0(DI), DX
	MULXQ 0(SI), R8, R9
	MULXQ 8(SI), AX, R10
	ADDQ  AX, R9
	MULXQ 16(SI), AX, R11
	ADCQ  AX, R10
	MULXQ 24(SI), AX, R12
	ADCQ  AX, R11
	MULXQ 32(SI), AX, R13
	ADCQ  AX, R12
	MULXQ 40(SI), AX, R14
	ADCQ  AX, R13
	ADCQ  CX, R14
	REDUCE(R8, R9, R10, R11, R12, R13, R14)

	// rounds 1-5: t += a*b[i], reduce; t0 moves one register up
	MOVQ 8(DI), DX
	MULADD(R9, R10, R11, R12, R13, R14, R8)
	REDUCE(R9, R10, R11, R12, R13, R14, R8)
	MOVQ 16(DI), DX
	MULADD(R10, R11, R12, R13, R14, R8, R9)
	REDUCE(R10, R11, R12, R13, R14, R8, R9)
	MOVQ 24(DI), DX
	MULADD(R11, R12, R13, R14, R8, R9, R10)
	REDUCE(R11, R12, R13, R14, R8, R9, R10)
	MOVQ 32(DI), DX
	MULADD(R12, R13, R14, R8, R9, R10, R11)
	REDUCE(R12, R13, R14, R8, R9, R10, R11)
	MOVQ 40(DI), DX
	MULADD(R13, R14, R8, R9, R10, R11, R12)
	REDUCE(R13, R14, R8, R9, R10, R11, R12)

	// t = R14, R8..R12 < 2p: take t - p unless that borrows.
	MOVQ    z+0(FP), R13
	MOVQ    R14, AX
	MOVQ    R8, BX
	MOVQ    R9, CX
	MOVQ    R10, DX
	MOVQ    R11, SI
	MOVQ    R12, DI
	SUBQ    p<>+0(SB), AX
	SBBQ    p<>+8(SB), BX
	SBBQ    p<>+16(SB), CX
	SBBQ    p<>+24(SB), DX
	SBBQ    p<>+32(SB), SI
	SBBQ    p<>+40(SB), DI
	CMOVQCC AX, R14
	CMOVQCC BX, R8
	CMOVQCC CX, R9
	CMOVQCC DX, R10
	CMOVQCC SI, R11
	CMOVQCC DI, R12
	MOVQ    R14, 0(R13)
	MOVQ    R8, 8(R13)
	MOVQ    R9, 16(R13)
	MOVQ    R10, 24(R13)
	MOVQ    R11, 32(R13)
	MOVQ    R12, 40(R13)
	RET

// func fpAdd(z, a, b *Fp)
//
// z = a + b mod p. a + b < 2p < 2^382 never carries out of the top
// limb, so the sum minus p borrows exactly when the sum is below p.
TEXT ·fpAdd(SB), NOSPLIT, $0-24
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), DI
	MOVQ    0(SI), R8
	MOVQ    8(SI), R9
	MOVQ    16(SI), R10
	MOVQ    24(SI), R11
	MOVQ    32(SI), R12
	MOVQ    40(SI), R13
	ADDQ    0(DI), R8
	ADCQ    8(DI), R9
	ADCQ    16(DI), R10
	ADCQ    24(DI), R11
	ADCQ    32(DI), R12
	ADCQ    40(DI), R13
	MOVQ    z+0(FP), R14
	MOVQ    R8, AX
	MOVQ    R9, BX
	MOVQ    R10, CX
	MOVQ    R11, DX
	MOVQ    R12, SI
	MOVQ    R13, DI
	SUBQ    p<>+0(SB), AX
	SBBQ    p<>+8(SB), BX
	SBBQ    p<>+16(SB), CX
	SBBQ    p<>+24(SB), DX
	SBBQ    p<>+32(SB), SI
	SBBQ    p<>+40(SB), DI
	CMOVQCC AX, R8
	CMOVQCC BX, R9
	CMOVQCC CX, R10
	CMOVQCC DX, R11
	CMOVQCC SI, R12
	CMOVQCC DI, R13
	MOVQ    R8, 0(R14)
	MOVQ    R9, 8(R14)
	MOVQ    R10, 16(R14)
	MOVQ    R11, 24(R14)
	MOVQ    R12, 32(R14)
	MOVQ    R13, 40(R14)
	RET

// func fpSub(z, a, b *Fp)
//
// z = a - b mod p: subtract, turn the borrow into an all-ones or zero
// mask, and add p AND mask back. The masking is done into registers
// before the add chain starts, since ANDQ clears CF.
TEXT ·fpSub(SB), NOSPLIT, $0-24
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	MOVQ 32(SI), R12
	MOVQ 40(SI), R13
	SUBQ 0(DI), R8
	SBBQ 8(DI), R9
	SBBQ 16(DI), R10
	SBBQ 24(DI), R11
	SBBQ 32(DI), R12
	SBBQ 40(DI), R13
	SBBQ R14, R14
	MOVQ p<>+0(SB), AX
	MOVQ p<>+8(SB), BX
	MOVQ p<>+16(SB), CX
	MOVQ p<>+24(SB), DX
	MOVQ p<>+32(SB), SI
	MOVQ p<>+40(SB), DI
	ANDQ R14, AX
	ANDQ R14, BX
	ANDQ R14, CX
	ANDQ R14, DX
	ANDQ R14, SI
	ANDQ R14, DI
	ADDQ AX, R8
	ADCQ BX, R9
	ADCQ CX, R10
	ADCQ DX, R11
	ADCQ SI, R12
	ADCQ DI, R13
	MOVQ z+0(FP), R14
	MOVQ R8, 0(R14)
	MOVQ R9, 8(R14)
	MOVQ R10, 16(R14)
	MOVQ R11, 24(R14)
	MOVQ R12, 32(R14)
	MOVQ R13, 40(R14)
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
