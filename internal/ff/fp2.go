package ff

import (
	"fmt"
	"math/big"
)

// Fp2 is the quadratic extension Fp[u]/(u^2 + 1). An element is C0 + C1*u.
// The zero value is the zero element.
type Fp2 struct {
	C0, C1 Fp
}

// Fp2Bytes is the size of a serialized Fp2 element.
const Fp2Bytes = 2 * FpBytes

// Fp2One returns the multiplicative identity.
func Fp2One() Fp2 { return Fp2{C0: fpOne} }

// Fp2NonResidue returns xi = 1 + u, the cubic/sextic non-residue used to
// build Fp6 and Fp12.
func Fp2NonResidue() Fp2 { return Fp2{C0: fpOne, C1: fpOne} }

// SetZero sets z to 0 and returns z.
func (z *Fp2) SetZero() *Fp2 { *z = Fp2{}; return z }

// SetOne sets z to 1 and returns z.
func (z *Fp2) SetOne() *Fp2 { *z = Fp2One(); return z }

// Set copies a into z and returns z.
func (z *Fp2) Set(a *Fp2) *Fp2 { *z = *a; return z }

// IsZero reports whether z is zero.
func (z *Fp2) IsZero() bool { return z.C0.IsZero() && z.C1.IsZero() }

// IsOne reports whether z is one.
func (z *Fp2) IsOne() bool { return z.C0.IsOne() && z.C1.IsZero() }

// Equal reports whether z == a.
func (z *Fp2) Equal(a *Fp2) bool { return z.C0.Equal(&a.C0) && z.C1.Equal(&a.C1) }

// String implements fmt.Stringer.
func (z *Fp2) String() string { return fmt.Sprintf("(%s + %s*u)", z.C0.String(), z.C1.String()) }

// Add sets z = a + b and returns z.
func (z *Fp2) Add(a, b *Fp2) *Fp2 {
	z.C0.Add(&a.C0, &b.C0)
	z.C1.Add(&a.C1, &b.C1)
	return z
}

// Double sets z = 2a and returns z.
func (z *Fp2) Double(a *Fp2) *Fp2 { return z.Add(a, a) }

// Sub sets z = a - b and returns z.
func (z *Fp2) Sub(a, b *Fp2) *Fp2 {
	z.C0.Sub(&a.C0, &b.C0)
	z.C1.Sub(&a.C1, &b.C1)
	return z
}

// Neg sets z = -a and returns z.
func (z *Fp2) Neg(a *Fp2) *Fp2 {
	z.C0.Neg(&a.C0)
	z.C1.Neg(&a.C1)
	return z
}

// Conjugate sets z = C0 - C1*u and returns z.
func (z *Fp2) Conjugate(a *Fp2) *Fp2 {
	z.C0 = a.C0
	z.C1.Neg(&a.C1)
	return z
}

// Mul sets z = a * b (Karatsuba over u^2 = -1) and returns z.
func (z *Fp2) Mul(a, b *Fp2) *Fp2 {
	var v0, v1, s0, s1, t Fp
	v0.Mul(&a.C0, &b.C0)
	v1.Mul(&a.C1, &b.C1)
	s0.Add(&a.C0, &a.C1)
	s1.Add(&b.C0, &b.C1)
	t.Mul(&s0, &s1)
	// z1 = (a0+a1)(b0+b1) - v0 - v1
	t.Sub(&t, &v0)
	t.Sub(&t, &v1)
	// z0 = v0 - v1
	z.C0.Sub(&v0, &v1)
	z.C1 = t
	return z
}

// Square sets z = a^2 and returns z.
func (z *Fp2) Square(a *Fp2) *Fp2 {
	// (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u
	var s, d, m Fp
	s.Add(&a.C0, &a.C1)
	d.Sub(&a.C0, &a.C1)
	m.Mul(&a.C0, &a.C1)
	z.C0.Mul(&s, &d)
	z.C1.Double(&m)
	return z
}

// MulByFp sets z = a * s for a base-field scalar s.
func (z *Fp2) MulByFp(a *Fp2, s *Fp) *Fp2 {
	z.C0.Mul(&a.C0, s)
	z.C1.Mul(&a.C1, s)
	return z
}

// MulByNonResidue sets z = a * (1 + u) and returns z.
func (z *Fp2) MulByNonResidue(a *Fp2) *Fp2 {
	// (a0 + a1 u)(1 + u) = (a0 - a1) + (a0 + a1) u
	var c0, c1 Fp
	c0.Sub(&a.C0, &a.C1)
	c1.Add(&a.C0, &a.C1)
	z.C0, z.C1 = c0, c1
	return z
}

// Inverse sets z = a^-1 and returns z. Inverting zero yields zero.
func (z *Fp2) Inverse(a *Fp2) *Fp2 {
	// 1/(a0 + a1 u) = (a0 - a1 u) / (a0^2 + a1^2)
	var t0, t1 Fp
	t0.Square(&a.C0)
	t1.Square(&a.C1)
	t0.Add(&t0, &t1)
	t0.Inverse(&t0)
	z.C0.Mul(&a.C0, &t0)
	t0.Neg(&t0)
	z.C1.Mul(&a.C1, &t0)
	return z
}

// Exp sets z = a^e for non-negative e and returns z.
func (z *Fp2) Exp(a *Fp2, e *big.Int) *Fp2 {
	if e.Sign() < 0 {
		panic("ff: negative exponent")
	}
	base := *a
	var out Fp2
	out.SetOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		out.Square(&out)
		if e.Bit(i) == 1 {
			out.Mul(&out, &base)
		}
	}
	*z = out
	return z
}

// Sqrt sets z to a square root of a, if one exists, and reports success.
// Uses the p^2 = 9 mod 16 generic method via exponentiation; only needed
// for completeness of the API (hash-to-G2 is not used by the library).
func (z *Fp2) Sqrt(a *Fp2) (*Fp2, bool) {
	if a.IsZero() {
		return z.SetZero(), true
	}
	// Candidate: c = a^((p^2+7)/16) style methods are fiddly; instead use
	// the fact that Fp2* is cyclic of order p^2-1: a is a QR iff
	// a^((p^2-1)/2) == 1, and a generic Tonelli-Shanks over Fp2 works.
	p2 := new(big.Int).Mul(fpP, fpP)
	legendre := new(big.Int).Rsh(new(big.Int).Sub(p2, big.NewInt(1)), 1)
	var l Fp2
	l.Exp(a, legendre)
	if !l.IsOne() {
		return z, false
	}
	// Tonelli-Shanks with group order p^2 - 1 = 2^s * q.
	order := new(big.Int).Sub(p2, big.NewInt(1))
	s := 0
	q := new(big.Int).Set(order)
	for q.Bit(0) == 0 {
		q.Rsh(q, 1)
		s++
	}
	// Find a non-residue: u + 2 is tried first, then increments.
	var nr Fp2
	nr.C1.SetOne()
	nr.C0.SetUint64(2)
	for {
		var chk Fp2
		chk.Exp(&nr, legendre)
		if !chk.IsOne() {
			break
		}
		var oneMore Fp
		oneMore.SetOne()
		nr.C0.Add(&nr.C0, &oneMore)
	}
	var c, t, r Fp2
	c.Exp(&nr, q)
	t.Exp(a, q)
	r.Exp(a, new(big.Int).Rsh(new(big.Int).Add(q, big.NewInt(1)), 1))
	m := s
	for !t.IsOne() {
		// find least i with t^(2^i) = 1
		i := 0
		var tt Fp2
		tt.Set(&t)
		for !tt.IsOne() {
			tt.Square(&tt)
			i++
		}
		var b Fp2
		b.Set(&c)
		for j := 0; j < m-i-1; j++ {
			b.Square(&b)
		}
		r.Mul(&r, &b)
		c.Square(&b)
		t.Mul(&t, &c)
		m = i
	}
	*z = r
	return z, true
}
