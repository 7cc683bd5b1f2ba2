package bls12381

import (
	"repro/internal/ff"
)

// Fast hard part of the final exponentiation using the decomposition of
// Hayashida, Hayasaka and Teruya (eprint 2020/875) for BLS curves:
//
//	3*(p^4 - p^2 + 1)/r = (x-1)^2 * (x+p) * (x^2 + p^2 - 1) + 3
//
// so the fast path computes f^(3*(p^4-p^2+1)/r) — the standard "cubed"
// final exponentiation. Raising to any fixed power coprime to r (and
// 3 does not divide r) yields an equally valid, non-degenerate bilinear
// pairing; production libraries make the same choice. The relationship
// FinalExponentiation(f) == FinalExponentiationPlain(f)^3, with the
// plain big-exponent reference living in pairing_oracle_test.go, is
// pinned by TestFastFinalExpMatchesPlain.
//
// All operands live in the cyclotomic subgroup (the easy part has been
// applied), where inversion is conjugation, squaring is the 9-Fp2-square
// Granger-Scott ff.Fp12.CyclotomicSquare, and exponentiation by the
// 64-bit curve parameter costs 63 of those plus 5 products. This
// replaces a ~1150-bit generic exponentiation and is cross-checked
// against it by TestFastFinalExpMatchesPlain (and, numerically, by
// TestHHTDecompositionIdentity).

// cycExpNegX computes f^x for the (negative) BLS parameter x, assuming f
// is in the cyclotomic subgroup: f^|x| by square-and-multiply, then
// conjugate. The top bit is set, so the chain starts from out = f
// rather than multiplying 1*f.
func cycExpNegX(f *ff.Fp12) ff.Fp12 {
	out := *f
	for i := millerTopBit() - 1; i >= 0; i-- {
		out.CyclotomicSquare(&out)
		if (blsX>>uint(i))&1 == 1 {
			out.Mul(&out, f)
		}
	}
	// blsXIsNegative: f^x = conj(f^|x|) in the cyclotomic subgroup.
	out.Conjugate(&out)
	return out
}

// cycExpXMinus1 computes f^(x-1) = f^x * f^-1 (conjugate).
func cycExpXMinus1(f *ff.Fp12) ff.Fp12 {
	out := cycExpNegX(f)
	var inv ff.Fp12
	inv.Conjugate(f)
	out.Mul(&out, &inv)
	return out
}

// finalExpHardFast computes f^(3*(p^4-p^2+1)/r) for f in the cyclotomic
// subgroup.
func finalExpHardFast(f *ff.Fp12) ff.Fp12 {
	// t = f^((x-1)^2)
	t := cycExpXMinus1(f)
	t = cycExpXMinus1(&t)
	// u = t^(x+p) = t^x * t^p
	u := cycExpNegX(&t)
	var tp ff.Fp12
	tp.Frobenius(&t, 1)
	u.Mul(&u, &tp)
	// v = u^(x^2 + p^2 - 1) = (u^x)^x * u^(p^2) * u^-1
	v := cycExpNegX(&u)
	v = cycExpNegX(&v)
	var up2, uinv ff.Fp12
	up2.Frobenius(&u, 2)
	uinv.Conjugate(&u)
	v.Mul(&v, &up2)
	v.Mul(&v, &uinv)
	// result = v * f^3
	var f3 ff.Fp12
	f3.CyclotomicSquare(f)
	f3.Mul(&f3, f)
	v.Mul(&v, &f3)
	return v
}

// finalExpEasy applies the easy part f^((p^6-1)(p^2+1)), returning an
// element of the cyclotomic subgroup.
func finalExpEasy(f *ff.Fp12) ff.Fp12 {
	var t, inv ff.Fp12
	t.Conjugate(f)
	inv.Inverse(f)
	t.Mul(&t, &inv)
	var fr ff.Fp12
	fr.Frobenius(&t, 2)
	t.Mul(&fr, &t)
	return t
}
