package ff

import (
	"fmt"
	"math/big"
	"sync"
)

// Fp12 is the quadratic extension Fp6[w]/(w^2 - v). An element is C0 + C1*w.
// Equivalently Fp12 = Fp2[W]/(W^6 - xi) with w = W and v = W^2; that view
// drives the Frobenius implementation. The zero value is the zero element.
type Fp12 struct {
	C0, C1 Fp6
}

// Fp12One returns the multiplicative identity.
func Fp12One() Fp12 { return Fp12{C0: Fp6One()} }

// IsOne reports whether z is one.
func (z *Fp12) IsOne() bool { return z.C0.IsOne() && z.C1.IsZero() }

// Equal reports whether z == a.
func (z *Fp12) Equal(a *Fp12) bool { return z.C0.Equal(&a.C0) && z.C1.Equal(&a.C1) }

// String implements fmt.Stringer.
func (z *Fp12) String() string {
	return fmt.Sprintf("(%s + %s*w)", z.C0.String(), z.C1.String())
}

// Conjugate sets z = C0 - C1*w and returns z. For elements of the
// cyclotomic subgroup (pairing outputs after the easy part), the conjugate
// equals the inverse.
func (z *Fp12) Conjugate(a *Fp12) *Fp12 {
	z.C0 = a.C0
	z.C1.Neg(&a.C1)
	return z
}

// Mul sets z = a * b (Karatsuba over w^2 = v) and returns z.
func (z *Fp12) Mul(a, b *Fp12) *Fp12 {
	var v0, v1, t0, t1 Fp6
	v0.Mul(&a.C0, &b.C0)
	v1.Mul(&a.C1, &b.C1)
	t0.Add(&a.C0, &a.C1)
	t1.Add(&b.C0, &b.C1)
	t0.Mul(&t0, &t1)
	t0.Sub(&t0, &v0)
	t0.Sub(&t0, &v1)
	// c0 = v0 + v*v1 ; c1 = (a0+a1)(b0+b1) - v0 - v1
	var vshift Fp6
	vshift.MulByV(&v1)
	z.C0.Add(&v0, &vshift)
	z.C1 = t0
	return z
}

// Square sets z = a^2 and returns z. Complex-method squaring over
// w^2 = v: with t = a0*a1,
//
//	a^2 = (a0 + a1)(a0 + v*a1) - t - v*t  +  2t * w
//
// — two Fp6 products where the schoolbook Mul(a, a) pays three.
func (z *Fp12) Square(a *Fp12) *Fp12 {
	var t, s0, s1 Fp6
	t.Mul(&a.C0, &a.C1)
	s0.Add(&a.C0, &a.C1)
	s1.MulByV(&a.C1)
	s1.Add(&s1, &a.C0)
	s0.Mul(&s0, &s1)
	s0.Sub(&s0, &t)
	s1.MulByV(&t)
	z.C0.Sub(&s0, &s1)
	z.C1.Double(&t)
	return z
}

// MulBySparse035 sets z = a * (c0 + c3*W^3 + c5*W^5) and returns z,
// where W-degrees index the Fp2[W]/(W^6 - xi) view of Fp12 (see
// frobComponents): the sparse factor is c0 + (c3*v + c5*v^2)*w. That
// is the shape of every Miller-loop line on the M-type twist, so the
// line is never materialized as a dense Fp12. Karatsuba over w with
// l1 = c3*v + c5*v^2:
//
//	z0 = a0*c0 + v*(a1*l1)
//	z1 = (a0 + a1)(c0 + l1) - a0*c0 - a1*l1
//
// costs 3 + 5 + 6 = 14 Fp2 products against the dense Mul's 18.
func (z *Fp12) MulBySparse035(a *Fp12, c0, c3, c5 *Fp2) *Fp12 {
	var v0, v1, t Fp6
	v0.MulByFp2(&a.C0, c0)
	v1.mulByV1V2(&a.C1, c3, c5)
	t.Add(&a.C0, &a.C1)
	t.Mul(&t, &Fp6{C0: *c0, C1: *c3, C2: *c5})
	t.Sub(&t, &v0)
	t.Sub(&t, &v1)
	v1.MulByV(&v1)
	z.C0.Add(&v0, &v1)
	z.C1 = t
	return z
}

// Inverse sets z = a^-1 and returns z. Inverting zero yields zero.
func (z *Fp12) Inverse(a *Fp12) *Fp12 {
	// 1/(c0 + c1 w) = (c0 - c1 w) / (c0^2 - v*c1^2)
	var t0, t1 Fp6
	t0.Square(&a.C0)
	t1.Square(&a.C1)
	t1.MulByV(&t1)
	t0.Sub(&t0, &t1)
	t0.Inverse(&t0)
	z.C0.Mul(&a.C0, &t0)
	t0.Neg(&t0)
	z.C1.Mul(&a.C1, &t0)
	return z
}

// frobCoeffs[k][i] = xi^(i * (p^k - 1) / 6) for k = 1..3, i = 1..5, viewing
// Fp12 as Fp2[W]/(W^6 - xi). Computed once, lazily, by exponentiation so no
// hardcoded tower constants can be wrong.
var (
	frobOnce   sync.Once
	frobCoeffs [4][6]Fp2
)

func frobInit() {
	xi := Fp2NonResidue()
	six := big.NewInt(6)
	for k := 1; k <= 3; k++ {
		pk := new(big.Int).Exp(fpP, big.NewInt(int64(k)), nil)
		pk.Sub(pk, big.NewInt(1))
		if new(big.Int).Mod(pk, six).Sign() != 0 {
			panic("ff: p^k - 1 not divisible by 6")
		}
		base := new(big.Int).Div(pk, six)
		for i := 1; i <= 5; i++ {
			e := new(big.Int).Mul(base, big.NewInt(int64(i)))
			frobCoeffs[k][i].Exp(&xi, e)
		}
	}
}

// frobComponents returns the six Fp2 components of a in W-degree order:
// degree 0..5 = C0.C0, C1.C0, C0.C1, C1.C1, C0.C2, C1.C2.
// (basis element of degree d is W^d, with W = w and W^2 = v.)
func (z *Fp12) frobComponents() [6]*Fp2 {
	return [6]*Fp2{&z.C0.C0, &z.C1.C0, &z.C0.C1, &z.C1.C1, &z.C0.C2, &z.C1.C2}
}

// Frobenius sets z = a^(p^k) for k in 1..3 and returns z.
func (z *Fp12) Frobenius(a *Fp12, k int) *Fp12 {
	if k < 1 || k > 3 {
		panic("ff: Frobenius power must be 1..3")
	}
	frobOnce.Do(frobInit)
	out := *a
	comps := out.frobComponents()
	for i := 0; i < 6; i++ {
		if k%2 == 1 {
			comps[i].Conjugate(comps[i])
		}
		if i > 0 {
			comps[i].Mul(comps[i], &frobCoeffs[k][i])
		}
	}
	*z = out
	return z
}

// fp4Square returns (a + b*s)^2 = (a^2 + xi*b^2) + 2ab*s in
// Fp4 = Fp2[s]/(s^2 - xi), with three Fp2 squarings.
func fp4Square(a, b *Fp2) (c0, c1 Fp2) {
	var a2, b2 Fp2
	a2.Square(a)
	b2.Square(b)
	c0.MulByNonResidue(&b2)
	c0.Add(&c0, &a2)
	c1.Add(a, b)
	c1.Square(&c1)
	c1.Sub(&c1, &a2)
	c1.Sub(&c1, &b2)
	return c0, c1
}

// tripleMinusDouble sets z = 3*sq - 2*in; triplePlusDouble sets
// z = 3*sq + 2*in: the Granger-Scott recombination of one coordinate.
func (z *Fp2) tripleMinusDouble(sq, in *Fp2) {
	var t Fp2
	t.Sub(sq, in)
	t.Double(&t)
	z.Add(&t, sq)
}

func (z *Fp2) triplePlusDouble(sq, in *Fp2) {
	var t Fp2
	t.Add(sq, in)
	t.Double(&t)
	z.Add(&t, sq)
}

// CyclotomicSquare sets z = a^2 for a in the cyclotomic subgroup (any
// output of the final exponentiation's easy part) and returns z.
// Granger-Scott squaring: view Fp12 as a cubic extension of Fp4 with
// the W-degree pairs (0,3), (1,4), (2,5) as its three Fp4 coordinates;
// the subgroup relation a^(p^4 - p^2 + 1) = 1 lets each squared
// coordinate be recovered as 3*(Fp4 square) +- 2*(conjugate of an input
// coordinate), so the whole squaring is 9 Fp2 squarings. Off the
// subgroup the result is NOT a^2 (TestCyclotomicSquareOffSubgroup).
func (z *Fp12) CyclotomicSquare(a *Fp12) *Fp12 {
	g0, g3 := &a.C0.C0, &a.C1.C1 // W^0, W^3
	g1, g4 := &a.C1.C0, &a.C0.C2 // W^1, W^4
	g2, g5 := &a.C0.C1, &a.C1.C2 // W^2, W^5
	a0, a1 := fp4Square(g0, g3)
	b0, b1 := fp4Square(g1, g4)
	c0, c1 := fp4Square(g2, g5)
	c1.MulByNonResidue(&c1)

	var out Fp12
	out.C0.C0.tripleMinusDouble(&a0, g0)
	out.C1.C1.triplePlusDouble(&a1, g3)
	out.C1.C0.triplePlusDouble(&c1, g1)
	out.C0.C2.tripleMinusDouble(&c0, g4)
	out.C0.C1.tripleMinusDouble(&b0, g2)
	out.C1.C2.triplePlusDouble(&b1, g5)
	*z = out
	return z
}
