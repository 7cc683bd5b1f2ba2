package bls12381

import (
	"math/big"
	"sync"

	"repro/internal/ff"
)

// The test-side pairing oracle: the affine, one-pair-at-a-time Miller
// loop with a dense Fp12 line and one Fp2 inversion per step,
// PairingCheckSequential built on it, and the plain big-exponent final
// exponentiation. It shares no formula with MillerLoopBatch — affine vs
// projective T, dense Mul vs Square/MulBySparse035, a generic 1150-bit
// exponent vs the HHT chain with Granger-Scott squarings. Raw Miller
// values differ from the production loop's by an Fp2 factor, so every
// comparison is made AFTER a final exponentiation.

// oracleBranches tallies the formula branches the oracle walked. The
// production loop's control flow is the same function of the same
// inputs (the bits of |x| and the infinity flags), so these are the
// branches a differential corpus reached.
type oracleBranches struct {
	doublings, additions, infinitySkips int
}

// lineEval builds the dense Fp12 line value from the Fp2 coefficients
// c0 (degree 0), c3 (degree 3) and c5 (degree 5).
func lineEval(c0, c3, c5 *ff.Fp2) ff.Fp12 {
	var out ff.Fp12
	out.C0.C0 = *c0
	out.C1.C1 = *c3
	out.C1.C2 = *c5
	return out
}

// millerStep computes the line through the twist points and updates T.
// If q is nil the step is a doubling (tangent at T); otherwise a chord
// through T and q. p is the affine G1 evaluation point.
func millerStep(t *G2Affine, q *G2Affine, p *G1Affine) ff.Fp12 {
	var lambda ff.Fp2
	if q == nil {
		// lambda = 3 xT^2 / (2 yT)
		var num, den ff.Fp2
		num.Square(&t.X)
		var three ff.Fp2
		three.Add(&num, &num)
		num.Add(&three, &num)
		den.Double(&t.Y)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	} else {
		// lambda = (yT - yQ) / (xT - xQ)
		var num, den ff.Fp2
		num.Sub(&t.Y, &q.Y)
		den.Sub(&t.X, &q.X)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	}

	// c0 = xi * yP ; c3 = lambda*xT - yT ; c5 = -lambda*xP
	xi := ff.Fp2NonResidue()
	var c0, c3, c5 ff.Fp2
	c0.MulByFp(&xi, &p.Y)
	c3.Mul(&lambda, &t.X)
	c3.Sub(&c3, &t.Y)
	c5.MulByFp(&lambda, &p.X)
	c5.Neg(&c5)

	// Update T.
	var x3, y3 ff.Fp2
	x3.Square(&lambda)
	x3.Sub(&x3, &t.X)
	if q == nil {
		x3.Sub(&x3, &t.X)
	} else {
		x3.Sub(&x3, &q.X)
	}
	y3.Sub(&t.X, &x3)
	y3.Mul(&lambda, &y3)
	y3.Sub(&y3, &t.Y)
	t.X, t.Y = x3, y3

	return lineEval(&c0, &c3, &c5)
}

// millerLoopCounted is the affine Miller loop f_{|x|,Q}(P), conjugated
// for the negative curve parameter, tallying its branches into br.
// Either argument at infinity yields 1.
func millerLoopCounted(p *G1Affine, q *G2Affine, br *oracleBranches) ff.Fp12 {
	f := ff.Fp12One()
	if p.Infinity || q.Infinity {
		br.infinitySkips++
		return f
	}
	t := *q
	msb := 63
	for msb >= 0 && (blsX>>uint(msb))&1 == 0 {
		msb--
	}
	for i := msb - 1; i >= 0; i-- {
		f.Mul(&f, &f)
		l := millerStep(&t, nil, p)
		f.Mul(&f, &l)
		br.doublings++
		if (blsX>>uint(i))&1 == 1 {
			l := millerStep(&t, q, p)
			f.Mul(&f, &l)
			br.additions++
		}
	}
	if blsXIsNegative {
		f.Conjugate(&f)
	}
	return f
}

// MillerLoop is the single-pair affine oracle without the tally.
func MillerLoop(p *G1Affine, q *G2Affine) ff.Fp12 {
	var br oracleBranches
	return millerLoopCounted(p, q, &br)
}

// millerProductOracle multiplies the per-pair oracle loops together.
func millerProductOracle(ps []G1Affine, qs []G2Affine, br *oracleBranches) ff.Fp12 {
	acc := ff.Fp12One()
	for i := range ps {
		f := millerLoopCounted(&ps[i], &qs[i], br)
		acc.Mul(&acc, &f)
	}
	return acc
}

// PairingCheckSequential is the naive reference: one full affine Miller
// loop per pair, multiplied into a single accumulator, one final
// exponentiation.
func PairingCheckSequential(ps []G1Affine, qs []G2Affine) bool {
	if len(ps) != len(qs) {
		return false
	}
	var br oracleBranches
	acc := millerProductOracle(ps, qs, &br)
	out := FinalExponentiation(&acc)
	return out.IsOne()
}

// finalExpHard is (p^4 - p^2 + 1)/r, the hard part of the final
// exponentiation, computed once.
var finalExpHard = sync.OnceValue(func() *big.Int {
	p := ff.FpModulus()
	p2 := new(big.Int).Mul(p, p)
	p4 := new(big.Int).Mul(p2, p2)
	h := new(big.Int).Sub(p4, p2)
	h.Add(h, big.NewInt(1))
	return h.Div(h, ff.FrModulus())
})

// FinalExponentiationPlain is the reference final exponentiation: easy
// part, then a plain square-and-multiply (dense Fp12 products only) by
// (p^4-p^2+1)/r. FinalExponentiation(f) equals its cube; see
// finalexp_fast.go.
func FinalExponentiationPlain(f *ff.Fp12) ff.Fp12 {
	t := finalExpEasy(f)
	e := finalExpHard()
	out := ff.Fp12One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		out.Mul(&out, &out)
		if e.Bit(i) == 1 {
			out.Mul(&out, &t)
		}
	}
	return out
}

// finalExpPlainCubed is FinalExponentiationPlain(f)^3: the oracle value
// FinalExponentiation(f) must equal bit for bit.
func finalExpPlainCubed(f *ff.Fp12) ff.Fp12 {
	plain := FinalExponentiationPlain(f)
	var cubed ff.Fp12
	cubed.Mul(&plain, &plain)
	cubed.Mul(&cubed, &plain)
	return cubed
}
