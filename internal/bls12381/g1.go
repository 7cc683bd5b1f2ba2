// Package bls12381 implements the BLS12-381 pairing-friendly elliptic
// curve: the groups G1 (over Fp) and G2 (over Fp2), hash-to-G1, point
// compression, and the optimal ate pairing into Fp12.
//
// It is built entirely on repro/internal/ff and the standard library,
// and carries a scalar arithmetic engine (DESIGN.md §8) on its hot
// paths: width-5 wNAF variable-base multiplication with GLV
// endomorphism decomposition on G1, precomputed fixed-base tables for
// both generators, Pippenger bucket-method multi-scalar multiplication
// (G1MultiScalarMult / G2MultiScalarMult), batch-hashed and
// batch-normalized hash-to-curve (HashToG1Batch), and a lockstep
// multi-pairing whose inversion-free projective Miller loops share one
// Fp12 squaring chain, sparse line products, a worker pool across
// cores, and a single final exponentiation (PairingCheck). Every fast
// path is pinned against a naive reference (ScalarMultBig,
// G1ClearCofactor, and the test-side affine pairing oracle in
// pairing_oracle_test.go) by equivalence and property tests. It is not
// constant-time.
package bls12381

import (
	"fmt"
	"math/big"

	"repro/internal/ff"
)

// blsX is |x| for the BLS12-381 curve parameter x = -0xd201000000010000.
const blsX uint64 = 0xd201000000010000

// blsXIsNegative records the sign of the curve parameter.
const blsXIsNegative = true

// g1B is the curve coefficient b = 4 in y^2 = x^3 + b.
var g1B = mustFp("4")

// g1Cofactor is h1 = (x-1)^2 / 3.
var g1Cofactor, _ = new(big.Int).SetString("396c8c005555e1568c00aaab0000aaab", 16)

// mustFp parses a decimal or 0x-prefixed hex string into an Fp element.
func mustFp(s string) ff.Fp {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		panic("bls12381: bad Fp literal " + s)
	}
	var z ff.Fp
	z.SetBig(v)
	return z
}

// G1Affine is a point on E(Fp): y^2 = x^3 + 4, in affine coordinates.
// Infinity is represented by the Infinity flag.
type G1Affine struct {
	X, Y     ff.Fp
	Infinity bool
}

// G1Generator returns the standard generator of the order-r subgroup of G1.
func G1Generator() G1Affine {
	return G1Affine{
		X: mustFp("0x17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"),
		Y: mustFp("0x08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"),
	}
}

// IsInfinity reports whether p is the point at infinity.
func (p *G1Affine) IsInfinity() bool { return p.Infinity }

// IsOnCurve reports whether p satisfies the curve equation (infinity counts).
func (p *G1Affine) IsOnCurve() bool {
	if p.Infinity {
		return true
	}
	var lhs, rhs ff.Fp
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &g1B)
	return lhs.Equal(&rhs)
}

// IsInSubgroup reports whether p is in the order-r subgroup.
//
// Instead of the 255-bit multiplication [r]P == inf, it checks
// phi(P) == [lambda]P with the half-length lambda (~128 bits). The two
// are equivalent: phi satisfies phi^2 + phi + 1 = 0 on the whole curve,
// so phi(P) = [lambda]P forces [lambda^2+lambda+1]P = [r]P = 0 (lambda
// was chosen with lambda^2+lambda+1 = r exactly); conversely the r-
// torsion of E(Fp) is precisely G1 (r^2 does not divide the curve
// order), where phi acts as lambda by construction. Equivalence against
// the naive check is pinned by TestG1SubgroupFastMatchesNaive.
func (p *G1Affine) IsInSubgroup() bool {
	if !p.IsOnCurve() {
		return false
	}
	if p.Infinity {
		return true
	}
	glvOnce.Do(glvInit)
	var base, lambdaP G1Jac
	base.FromAffine(p)
	g1WnafMult(&lambdaP, &base, glvLambda[:])
	phiP := g1Phi(p)
	var phiJac G1Jac
	phiJac.FromAffine(&phiP)
	return lambdaP.Equal(&phiJac)
}

// Equal reports whether p == q.
func (p *G1Affine) Equal(q *G1Affine) bool {
	if p.Infinity || q.Infinity {
		return p.Infinity == q.Infinity
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// Neg sets p = -q and returns p.
func (p *G1Affine) Neg(q *G1Affine) *G1Affine {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Infinity = q.Infinity
	return p
}

// String implements fmt.Stringer.
func (p *G1Affine) String() string {
	if p.Infinity {
		return "G1(inf)"
	}
	return fmt.Sprintf("G1(%s, %s)", p.X.String(), p.Y.String())
}

// G1Jac is a point on E(Fp) in Jacobian coordinates (X/Z^2, Y/Z^3).
// Infinity is represented by Z = 0. The zero value is infinity.
type G1Jac struct {
	X, Y, Z ff.Fp
}

// IsInfinity reports whether p is the point at infinity.
func (p *G1Jac) IsInfinity() bool { return p.Z.IsZero() }

// SetInfinity sets p to the point at infinity and returns p.
func (p *G1Jac) SetInfinity() *G1Jac {
	p.X.SetOne()
	p.Y.SetOne()
	p.Z.SetZero()
	return p
}

// FromAffine sets p to the Jacobian form of a and returns p.
func (p *G1Jac) FromAffine(a *G1Affine) *G1Jac {
	if a.Infinity {
		return p.SetInfinity()
	}
	p.X = a.X
	p.Y = a.Y
	p.Z.SetOne()
	return p
}

// Affine converts p to affine coordinates.
func (p *G1Jac) Affine() G1Affine {
	if p.IsInfinity() {
		return G1Affine{Infinity: true}
	}
	if p.Z.IsOne() {
		return G1Affine{X: p.X, Y: p.Y}
	}
	var zInv, zInv2, zInv3 ff.Fp
	zInv.Inverse(&p.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	var out G1Affine
	out.X.Mul(&p.X, &zInv2)
	out.Y.Mul(&p.Y, &zInv3)
	return out
}

// Set copies q into p and returns p.
func (p *G1Jac) Set(q *G1Jac) *G1Jac { *p = *q; return p }

// Neg sets p = -q and returns p.
func (p *G1Jac) Neg(q *G1Jac) *G1Jac {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Z = q.Z
	return p
}

// Double sets p = 2q and returns p.
func (p *G1Jac) Double(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p.Set(q)
	}
	// dbl-2007-bl (a = 0)
	var a, b, c, d, e, f, t ff.Fp
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

	var x3, y3, z3 ff.Fp
	x3.Sub(&f, t.Double(&d))
	y3.Sub(&d, &x3)
	y3.Mul(&e, &y3)
	var c8 ff.Fp
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
func (p *G1Jac) Add(a, b *G1Jac) *G1Jac {
	if a.IsInfinity() {
		return p.Set(b)
	}
	if b.IsInfinity() {
		return p.Set(a)
	}
	// add-2007-bl
	var z1z1, z2z2, u1, u2, s1, s2 ff.Fp
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

	var h, i, j, rr, v ff.Fp
	h.Sub(&u2, &u1)
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	rr.Sub(&s2, &s1)
	rr.Double(&rr)
	v.Mul(&u1, &i)

	var x3, y3, z3, t ff.Fp
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

// AddAffine sets p = a + b where b is affine, and returns p.
func (p *G1Jac) AddAffine(a *G1Jac, b *G1Affine) *G1Jac {
	var bj G1Jac
	bj.FromAffine(b)
	return p.Add(a, &bj)
}

// ScalarMultBig sets p = k*q for a non-negative big integer k and returns p.
func (p *G1Jac) ScalarMultBig(q *G1Jac, k *big.Int) *G1Jac {
	if k.Sign() < 0 {
		var negQ G1Jac
		negQ.Neg(q)
		return p.ScalarMultBig(&negQ, new(big.Int).Neg(k))
	}
	var acc G1Jac
	acc.SetInfinity()
	base := *q
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if k.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return p.Set(&acc)
}

// ScalarMult sets p = k*q for a scalar field element k and returns p.
// It runs the wNAF + GLV fast path (two half-length NAF loops over one
// shared doubling chain); ScalarMultBig is the retained naive reference
// the equivalence tests pin this against.
//
// q MUST be in the order-r subgroup: the GLV identity phi(q) =
// [lambda]q holds only there, so for an on-curve point outside the
// subgroup the result differs from ScalarMultBig. Every point this
// package hands out (decoded via SetBytes, hashed, or derived from the
// generator) satisfies this; raw curve points must use ScalarMultBig.
func (p *G1Jac) ScalarMult(q *G1Jac, k *ff.Fr) *G1Jac {
	return g1GLVMult(p, q, k)
}

// Equal reports whether p and q represent the same point.
func (p *G1Jac) Equal(q *G1Jac) bool {
	pa, qa := p.Affine(), q.Affine()
	return pa.Equal(&qa)
}

// G1ScalarBaseMult returns k*G for the subgroup generator G, walking
// the precomputed fixed-base table: at most 32 mixed additions and no
// doublings, with no per-call generator rebuild or big.Int conversion.
func G1ScalarBaseMult(k *ff.Fr) G1Affine {
	var out G1Jac
	g1FixedMult(&out, g1GenTable(), k)
	return out.Affine()
}

// G1ClearCofactor multiplies p by the G1 cofactor, mapping any curve point
// into the order-r subgroup.
func G1ClearCofactor(p *G1Affine) G1Affine {
	var j, out G1Jac
	j.FromAffine(p)
	out.ScalarMultBig(&j, g1Cofactor)
	return out.Affine()
}
