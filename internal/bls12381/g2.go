package bls12381

import (
	"fmt"

	"repro/internal/ff"
)

// g2B is the twist coefficient b' = 4(1 + u) in y^2 = x^3 + b'.
var g2B = func() ff.Fp2 {
	xi := ff.Fp2NonResidue()
	var four ff.Fp
	four.SetUint64(4)
	var b ff.Fp2
	b.MulByFp(&xi, &four)
	return b
}()

// G2Affine is a point on the twist E'(Fp2): y^2 = x^3 + 4(1+u).
type G2Affine struct {
	X, Y     ff.Fp2
	Infinity bool
}

// G2Generator returns the standard generator of the order-r subgroup of G2.
func G2Generator() G2Affine {
	return G2Affine{
		X: ff.Fp2{
			C0: mustFp("0x024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"),
			C1: mustFp("0x13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e"),
		},
		Y: ff.Fp2{
			C0: mustFp("0x0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801"),
			C1: mustFp("0x0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be"),
		},
	}
}

// IsInfinity reports whether p is the point at infinity.
func (p *G2Affine) IsInfinity() bool { return p.Infinity }

// IsOnCurve reports whether p satisfies the twist equation.
func (p *G2Affine) IsOnCurve() bool {
	if p.Infinity {
		return true
	}
	var lhs, rhs ff.Fp2
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &g2B)
	return lhs.Equal(&rhs)
}

// IsInSubgroup reports whether p is in the order-r subgroup: [r]P must
// be infinity, computed with the wNAF fast path (the naive reference is
// retained in ScalarMultBig and pinned by tests).
func (p *G2Affine) IsInSubgroup() bool {
	if !p.IsOnCurve() {
		return false
	}
	var j, out G2Jac
	j.FromAffine(p)
	g2WnafMult(&out, &j, frModulusLimbs[:])
	return out.IsInfinity()
}

// Equal reports whether p == q.
func (p *G2Affine) Equal(q *G2Affine) bool {
	if p.Infinity || q.Infinity {
		return p.Infinity == q.Infinity
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// Neg sets p = -q and returns p.
func (p *G2Affine) Neg(q *G2Affine) *G2Affine {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Infinity = q.Infinity
	return p
}

// String implements fmt.Stringer.
func (p *G2Affine) String() string {
	if p.Infinity {
		return "G2(inf)"
	}
	return fmt.Sprintf("G2(%s, %s)", p.X.String(), p.Y.String())
}

// G2Jac is a point on the twist in Jacobian coordinates. Z = 0 is infinity.
type G2Jac struct {
	X, Y, Z ff.Fp2
}

// IsInfinity reports whether p is the point at infinity.
func (p *G2Jac) IsInfinity() bool { return p.Z.IsZero() }

// SetInfinity sets p to the point at infinity and returns p.
func (p *G2Jac) SetInfinity() *G2Jac {
	p.X.SetOne()
	p.Y.SetOne()
	p.Z.SetZero()
	return p
}

// FromAffine sets p to the Jacobian form of a and returns p.
func (p *G2Jac) FromAffine(a *G2Affine) *G2Jac {
	if a.Infinity {
		return p.SetInfinity()
	}
	p.X = a.X
	p.Y = a.Y
	p.Z.SetOne()
	return p
}

// Affine converts p to affine coordinates.
func (p *G2Jac) Affine() G2Affine {
	if p.IsInfinity() {
		return G2Affine{Infinity: true}
	}
	if p.Z.IsOne() {
		return G2Affine{X: p.X, Y: p.Y}
	}
	var zInv, zInv2, zInv3 ff.Fp2
	zInv.Inverse(&p.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	var out G2Affine
	out.X.Mul(&p.X, &zInv2)
	out.Y.Mul(&p.Y, &zInv3)
	return out
}

// Set copies q into p and returns p.
func (p *G2Jac) Set(q *G2Jac) *G2Jac { *p = *q; return p }

// Neg sets p = -q and returns p.
func (p *G2Jac) Neg(q *G2Jac) *G2Jac {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Z = q.Z
	return p
}

// Double sets p = 2q and returns p.
func (p *G2Jac) Double(q *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p.Set(q)
	}
	var a, b, c, d, e, f, t ff.Fp2
	a.Square(&q.X)
	b.Square(&q.Y)
	c.Square(&b)
	d.Add(&q.X, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a)
	e.Add(&e, &a)
	f.Square(&e)

	var x3, y3, z3 ff.Fp2
	x3.Sub(&f, t.Double(&d))
	y3.Sub(&d, &x3)
	y3.Mul(&e, &y3)
	var c8 ff.Fp2
	c8.Double(&c)
	c8.Double(&c8)
	c8.Double(&c8)
	y3.Sub(&y3, &c8)
	z3.Mul(&q.Y, &q.Z)
	z3.Double(&z3)

	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// Add sets p = a + b and returns p.
func (p *G2Jac) Add(a, b *G2Jac) *G2Jac {
	if a.IsInfinity() {
		return p.Set(b)
	}
	if b.IsInfinity() {
		return p.Set(a)
	}
	var z1z1, z2z2, u1, u2, s1, s2 ff.Fp2
	z1z1.Square(&a.Z)
	z2z2.Square(&b.Z)
	u1.Mul(&a.X, &z2z2)
	u2.Mul(&b.X, &z1z1)
	s1.Mul(&a.Y, &b.Z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&b.Y, &a.Z)
	s2.Mul(&s2, &z1z1)

	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			return p.Double(a)
		}
		return p.SetInfinity()
	}

	var h, i, j, rr, v ff.Fp2
	h.Sub(&u2, &u1)
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	rr.Sub(&s2, &s1)
	rr.Double(&rr)
	v.Mul(&u1, &i)

	var x3, y3, z3, t ff.Fp2
	x3.Square(&rr)
	x3.Sub(&x3, &j)
	x3.Sub(&x3, t.Double(&v))
	y3.Sub(&v, &x3)
	y3.Mul(&rr, &y3)
	t.Mul(&s1, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&a.Z, &b.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// G2ScalarBaseMult returns k*G for the subgroup generator G of G2,
// walking the precomputed fixed-base table: at most 32 mixed additions
// and no doublings, with no per-call generator rebuild or big.Int
// conversion.
func G2ScalarBaseMult(k *ff.Fr) G2Affine {
	var out G2Jac
	g2FixedMult(&out, g2GenTable(), k)
	return out.Affine()
}
