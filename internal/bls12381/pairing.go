package bls12381

import (
	"repro/internal/ff"
)

// The optimal ate pairing e: G1 x G2 -> GT (the order-r subgroup of Fp12*).
//
// There is one Miller loop, MillerLoopBatch (pairing_batch.go), for any
// number of pairs; Pair is a batch of one. It iterates over
// |x| = 0xd201000000010000 with the point T walking the twist in
// homogeneous projective coordinates, so no step inverts anything, and
// evaluates tangent/chord lines at the G1 argument. Because x < 0 the
// Miller result is conjugated before the final exponentiation. Each line
// is scaled by an Fp2 factor that depends on T (the cleared denominator,
// times the constant xi); the final exponentiation annihilates all of
// Fp2*, so only its output is canonical — raw Miller values are not
// comparable across implementations.
//
// A line is three Fp2 coefficients at W-degrees 0, 3, 5 (basis
// Fp12 = Fp2[W]/(W^6 - xi)); in affine terms, with lambda the
// twist-point slope,
//
//	l(P) = xi*yP  +  (lambda*xT - yT) * W^3  -  (lambda*xP) * W^5
//
// and it is multiplied into the accumulator by ff.Fp12.MulBySparse035
// without ever being built as a dense Fp12. Degree 3 = C1.C1 and degree
// 5 = C1.C2 in the 2-3-2 tower (see ff.Fp12 Frobenius component
// ordering). The affine single-pair loop this replaced survives as the
// test-side oracle in pairing_oracle_test.go.

// FinalExponentiation maps a Miller loop output to the canonical coset
// representative in GT: f^(3*(p^12-1)/r). The hard part uses the x-based
// HHT decomposition (finalexp_fast.go).
func FinalExponentiation(f *ff.Fp12) ff.Fp12 {
	t := finalExpEasy(f)
	return finalExpHardFast(&t)
}

// Pair computes the full pairing e(p, q).
func Pair(p *G1Affine, q *G2Affine) ff.Fp12 {
	f := MillerLoopBatch([]G1Affine{*p}, []G2Affine{*q})
	return FinalExponentiation(&f)
}
