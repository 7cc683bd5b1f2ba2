package ff

import "fmt"

// Fp6 is the cubic extension Fp2[v]/(v^3 - xi) with xi = 1 + u.
// An element is C0 + C1*v + C2*v^2. The zero value is the zero element.
type Fp6 struct {
	C0, C1, C2 Fp2
}

// Fp6One returns the multiplicative identity.
func Fp6One() Fp6 { return Fp6{C0: Fp2One()} }

// IsZero reports whether z is zero.
func (z *Fp6) IsZero() bool { return z.C0.IsZero() && z.C1.IsZero() && z.C2.IsZero() }

// IsOne reports whether z is one.
func (z *Fp6) IsOne() bool { return z.C0.IsOne() && z.C1.IsZero() && z.C2.IsZero() }

// Equal reports whether z == a.
func (z *Fp6) Equal(a *Fp6) bool {
	return z.C0.Equal(&a.C0) && z.C1.Equal(&a.C1) && z.C2.Equal(&a.C2)
}

// String implements fmt.Stringer.
func (z *Fp6) String() string {
	return fmt.Sprintf("(%s + %s*v + %s*v^2)", z.C0.String(), z.C1.String(), z.C2.String())
}

// Add sets z = a + b and returns z.
func (z *Fp6) Add(a, b *Fp6) *Fp6 {
	z.C0.Add(&a.C0, &b.C0)
	z.C1.Add(&a.C1, &b.C1)
	z.C2.Add(&a.C2, &b.C2)
	return z
}

// Double sets z = 2a and returns z.
func (z *Fp6) Double(a *Fp6) *Fp6 { return z.Add(a, a) }

// Sub sets z = a - b and returns z.
func (z *Fp6) Sub(a, b *Fp6) *Fp6 {
	z.C0.Sub(&a.C0, &b.C0)
	z.C1.Sub(&a.C1, &b.C1)
	z.C2.Sub(&a.C2, &b.C2)
	return z
}

// Neg sets z = -a and returns z.
func (z *Fp6) Neg(a *Fp6) *Fp6 {
	z.C0.Neg(&a.C0)
	z.C1.Neg(&a.C1)
	z.C2.Neg(&a.C2)
	return z
}

// Mul sets z = a * b (Toom/Karatsuba-lite, reducing v^3 = xi) and returns z.
func (z *Fp6) Mul(a, b *Fp6) *Fp6 {
	var v0, v1, v2 Fp2
	v0.Mul(&a.C0, &b.C0)
	v1.Mul(&a.C1, &b.C1)
	v2.Mul(&a.C2, &b.C2)

	// c0 = v0 + xi*((a1+a2)(b1+b2) - v1 - v2)
	var t0, t1, c0, c1, c2 Fp2
	t0.Add(&a.C1, &a.C2)
	t1.Add(&b.C1, &b.C2)
	t0.Mul(&t0, &t1)
	t0.Sub(&t0, &v1)
	t0.Sub(&t0, &v2)
	t0.MulByNonResidue(&t0)
	c0.Add(&v0, &t0)

	// c1 = (a0+a1)(b0+b1) - v0 - v1 + xi*v2
	t0.Add(&a.C0, &a.C1)
	t1.Add(&b.C0, &b.C1)
	t0.Mul(&t0, &t1)
	t0.Sub(&t0, &v0)
	t0.Sub(&t0, &v1)
	t1.MulByNonResidue(&v2)
	c1.Add(&t0, &t1)

	// c2 = (a0+a2)(b0+b2) - v0 - v2 + v1
	t0.Add(&a.C0, &a.C2)
	t1.Add(&b.C0, &b.C2)
	t0.Mul(&t0, &t1)
	t0.Sub(&t0, &v0)
	t0.Sub(&t0, &v2)
	c2.Add(&t0, &v1)

	z.C0, z.C1, z.C2 = c0, c1, c2
	return z
}

// Square sets z = a^2 and returns z.
func (z *Fp6) Square(a *Fp6) *Fp6 { return z.Mul(a, a) }

// MulByFp2 sets z = a * s for an Fp2 scalar s.
func (z *Fp6) MulByFp2(a *Fp6, s *Fp2) *Fp6 {
	z.C0.Mul(&a.C0, s)
	z.C1.Mul(&a.C1, s)
	z.C2.Mul(&a.C2, s)
	return z
}

// mulByV1V2 sets z = a * (b1*v + b2*v^2), the sparse Fp6 product inside
// Fp12.MulBySparse035, with five Fp2 products.
func (z *Fp6) mulByV1V2(a *Fp6, b1, b2 *Fp2) *Fp6 {
	var v1, v2, t0, t1, c0, c1, c2 Fp2
	v1.Mul(&a.C1, b1)
	v2.Mul(&a.C2, b2)

	// c0 = xi*(a1*b2 + a2*b1) = xi*((a1+a2)(b1+b2) - v1 - v2)
	t0.Add(&a.C1, &a.C2)
	t1.Add(b1, b2)
	c0.Mul(&t0, &t1)
	c0.Sub(&c0, &v1)
	c0.Sub(&c0, &v2)
	c0.MulByNonResidue(&c0)

	// c1 = a0*b1 + xi*v2 ; c2 = a0*b2 + v1
	c1.Mul(&a.C0, b1)
	t0.MulByNonResidue(&v2)
	c1.Add(&c1, &t0)
	c2.Mul(&a.C0, b2)
	c2.Add(&c2, &v1)

	z.C0, z.C1, z.C2 = c0, c1, c2
	return z
}

// MulByV sets z = a * v, i.e. (c2*xi, c0, c1), and returns z.
func (z *Fp6) MulByV(a *Fp6) *Fp6 {
	var c0 Fp2
	c0.MulByNonResidue(&a.C2)
	c1 := a.C0
	c2 := a.C1
	z.C0, z.C1, z.C2 = c0, c1, c2
	return z
}

// Inverse sets z = a^-1 and returns z. Inverting zero yields zero.
func (z *Fp6) Inverse(a *Fp6) *Fp6 {
	// Standard formula: see Guide to Pairing-Based Cryptography, ch. 5.
	var t0, t1, t2, t3, t4, t5 Fp2
	t0.Square(&a.C0)
	t1.Square(&a.C1)
	t2.Square(&a.C2)
	t3.Mul(&a.C0, &a.C1)
	t4.Mul(&a.C0, &a.C2)
	t5.Mul(&a.C1, &a.C2)

	// A = t0 - xi*t5 ; B = xi*t2 - t3 ; C = t1 - t4
	var A, B, C Fp2
	A.MulByNonResidue(&t5)
	A.Sub(&t0, &A)
	B.MulByNonResidue(&t2)
	B.Sub(&B, &t3)
	C.Sub(&t1, &t4)

	// F = a0*A + xi*(a2*B + a1*C)
	var F, tmp Fp2
	F.Mul(&a.C2, &B)
	tmp.Mul(&a.C1, &C)
	F.Add(&F, &tmp)
	F.MulByNonResidue(&F)
	tmp.Mul(&a.C0, &A)
	F.Add(&F, &tmp)
	F.Inverse(&F)

	z.C0.Mul(&A, &F)
	z.C1.Mul(&B, &F)
	z.C2.Mul(&C, &F)
	return z
}
