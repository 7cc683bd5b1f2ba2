package bls12381

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/ff"
)

// Fast G1 arithmetic: mixed Jacobian+affine addition, wNAF
// multiplication for public scalars, a precomputed fixed-base table for
// the generator, Pippenger multi-scalar multiplication, and the
// endomorphism subgroup check. Every routine here is pinned against the
// naive double-and-add paths by the tests in fast_test.go.

// AddMixed sets p = a + b where b is affine (madd-2007-bl, Z2 = 1):
// 7M + 4S instead of the 11M + 5S of a general Jacobian addition. This
// is the inner operation of the bucket method and the fixed-base table
// walk.
func (p *G1Jac) AddMixed(a *G1Jac, b *G1Affine) *G1Jac {
	if b.Infinity {
		return p.Set(a)
	}
	if a.IsInfinity() {
		return p.FromAffine(b)
	}
	var z1z1, u2, s2 ff.Fp
	z1z1.Square(&a.Z)
	u2.Mul(&b.X, &z1z1)
	s2.Mul(&b.Y, &a.Z)
	s2.Mul(&s2, &z1z1)

	if u2.Equal(&a.X) {
		if s2.Equal(&a.Y) {
			return p.Double(a)
		}
		return p.SetInfinity()
	}

	var h, hh, i, j, rr, v ff.Fp
	h.Sub(&u2, &a.X)
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i)
	j.Mul(&h, &i)
	rr.Sub(&s2, &a.Y)
	rr.Double(&rr)
	v.Mul(&a.X, &i)

	var x3, y3, z3, t ff.Fp
	x3.Square(&rr)
	x3.Sub(&x3, &j)
	x3.Sub(&x3, t.Double(&v))
	y3.Sub(&v, &x3)
	y3.Mul(&rr, &y3)
	t.Mul(&a.Y, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&a.Z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// g1BatchAffine converts a slice of Jacobian points to affine with one
// shared field inversion (Montgomery's trick). Infinity entries are
// passed through.
func g1BatchAffine(pts []G1Jac) []G1Affine {
	out := make([]G1Affine, len(pts))
	prefix := make([]ff.Fp, len(pts))
	var acc ff.Fp
	acc.SetOne()
	for i := range pts {
		prefix[i] = acc
		if !pts[i].IsInfinity() {
			acc.Mul(&acc, &pts[i].Z)
		}
	}
	var inv ff.Fp
	inv.Inverse(&acc)
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].IsInfinity() {
			out[i] = G1Affine{Infinity: true}
			continue
		}
		var zInv, zInv2, zInv3 ff.Fp
		zInv.Mul(&inv, &prefix[i])
		inv.Mul(&inv, &pts[i].Z)
		zInv2.Square(&zInv)
		zInv3.Mul(&zInv2, &zInv)
		out[i].X.Mul(&pts[i].X, &zInv2)
		out[i].Y.Mul(&pts[i].Y, &zInv3)
	}
	return out
}

// g1OddMultiples fills tbl with the odd multiples P, 3P, ..,
// (2*len(tbl)-1)P of the base.
func g1OddMultiples(base *G1Jac, tbl []G1Jac) {
	tbl[0] = *base
	var twoP G1Jac
	twoP.Double(base)
	for i := 1; i < len(tbl); i++ {
		tbl[i].Add(&tbl[i-1], &twoP)
	}
}

// g1WnafMult computes k*base for a canonical little-endian limb scalar
// using width-scalarWindow NAF digits over a table of odd multiples.
// The table stays Jacobian: normalizing it would cost a field inversion
// per call, more than the mixed-addition savings buy back.
func g1WnafMult(p *G1Jac, base *G1Jac, k []uint64) *G1Jac {
	if base.IsInfinity() || limbsIsZero(k) {
		return p.SetInfinity()
	}
	var tbl [1 << (scalarWindow - 2)]G1Jac
	g1OddMultiples(base, tbl[:])
	var negEntry G1Jac
	digits := wnafDigits(k, scalarWindow)
	var acc G1Jac
	acc.SetInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc.Double(&acc)
		d := digits[i]
		if d > 0 {
			acc.Add(&acc, &tbl[d>>1])
		} else if d < 0 {
			negEntry.Neg(&tbl[(-d)>>1])
			acc.Add(&acc, &negEntry)
		}
	}
	return p.Set(&acc)
}

// g1FixedWindow is the radix width of the generator table: 32 windows
// of 255 precomputed multiples each, so a base multiplication is at
// most 32 mixed additions and zero doublings.
const g1FixedWindow = 8

// g1GenTable is the lazily built fixed-base table for the generator:
// win[i][d-1] = d * 2^(8i) * G.
var g1GenTable = sync.OnceValue(func() [][]G1Affine {
	gen := G1Generator()
	return g1BuildFixedTable(&gen)
})

// g1BuildFixedTable precomputes the per-byte multiples of a base point.
func g1BuildFixedTable(base *G1Affine) [][]G1Affine {
	const windows = (ff.FrBytes*8 + g1FixedWindow - 1) / g1FixedWindow
	const entries = 1<<g1FixedWindow - 1
	flat := make([]G1Jac, windows*entries)
	var win G1Jac
	win.FromAffine(base)
	for i := 0; i < windows; i++ {
		row := flat[i*entries : (i+1)*entries]
		row[0] = win
		for d := 1; d < entries; d++ {
			row[d].Add(&row[d-1], &win)
		}
		// Next window base: 2^8 * current.
		win = row[entries-1]
		win.Add(&win, &flat[i*entries])
	}
	aff := g1BatchAffine(flat)
	out := make([][]G1Affine, windows)
	for i := range out {
		out[i] = aff[i*entries : (i+1)*entries]
	}
	return out
}

// g1FixedMult walks a fixed-base table: one mixed addition per nonzero
// scalar byte.
func g1FixedMult(p *G1Jac, table [][]G1Affine, k *ff.Fr) *G1Jac {
	limbs := k.Canonical()
	var acc G1Jac
	acc.SetInfinity()
	for i := range table {
		d := (limbs[i/8] >> (uint(i%8) * 8)) & 0xff
		if d != 0 {
			acc.AddMixed(&acc, &table[i][d-1])
		}
	}
	return p.Set(&acc)
}

// msmWindow picks the Pippenger bucket width for n points: roughly
// log2(n), balancing the per-window point pass against the bucket
// collapse.
func msmWindow(n int) uint {
	switch {
	case n < 4:
		return 2
	case n < 12:
		return 3
	case n < 32:
		return 4
	case n < 128:
		return 5
	case n < 512:
		return 6
	case n < 2048:
		return 8
	default:
		return 10
	}
}

// scalarMaxBits returns the highest set bit position + 1 across all
// canonical scalars, so short (e.g. 128-bit batching) coefficients only
// pay for the windows they occupy.
func scalarMaxBits(scalars [][4]uint64) int {
	top := 0
	for i := range scalars {
		for j := 3; j >= 0; j-- {
			if scalars[i][j] != 0 {
				b := j*64 + 64 - bits.LeadingZeros64(scalars[i][j])
				if b > top {
					top = b
				}
				break
			}
		}
	}
	return top
}

// shorterNegation returns r-k and whether it is smaller than k, the
// canonical scalar k < r: then k*P = (r-k)*(-P) is the shorter product.
func shorterNegation(k *[4]uint64) ([4]uint64, bool) {
	var d [4]uint64
	var borrow uint64
	for i := range d {
		d[i], borrow = bits.Sub64(frModulusLimbs[i], k[i], borrow)
	}
	for i := 3; i >= 0; i-- {
		if d[i] != k[i] {
			return d, d[i] < k[i]
		}
	}
	return d, false
}

// G1MultiScalarMult computes sum scalars[i] * points[i] with the
// Pippenger bucket method. It is equivalent to (and pinned against) the
// naive sum of individual multiplications; infinity points and zero
// scalars contribute nothing. Both slices must have equal length.
//
// Each scalar is used in its shorter signed form: a scalar above r/2
// multiplies the negated point by r minus it. Lagrange coefficients at
// small share indexes are small integers of either sign (2 and -1 for
// indexes 1 and 2), so their interpolation costs a few additions.
func G1MultiScalarMult(points []G1Affine, scalars []ff.Fr) G1Jac {
	if len(points) != len(scalars) {
		panic("bls12381: G1MultiScalarMult length mismatch")
	}
	var acc G1Jac
	acc.SetInfinity()
	n := len(points)
	switch n {
	case 0:
		return acc
	case 1:
		// One point, a public scalar: the wNAF loop on its shorter
		// signed form (VerifyBatch's 128-bit coefficients).
		k := scalars[0].Canonical()
		var base G1Jac
		base.FromAffine(&points[0])
		if d, shorter := shorterNegation(&k); shorter {
			k = d
			base.Neg(&base)
		}
		g1WnafMult(&acc, &base, k[:])
		return acc
	}
	canon := make([][4]uint64, n)
	negated := false // points is the caller's until a point is negated
	for i := range scalars {
		canon[i] = scalars[i].Canonical()
		if d, shorter := shorterNegation(&canon[i]); shorter {
			if !negated {
				points, negated = slices.Clone(points), true
			}
			canon[i] = d
			points[i].Neg(&points[i])
		}
	}
	c := msmWindow(n)
	maxBits := scalarMaxBits(canon)
	if maxBits == 0 {
		return acc
	}
	windows := (maxBits + int(c) - 1) / int(c)
	buckets := make([]G1Jac, 1<<c-1)
	for w := windows - 1; w >= 0; w-- {
		for i := 0; i < int(c); i++ {
			acc.Double(&acc)
		}
		for i := range buckets {
			buckets[i].SetInfinity()
		}
		shift := uint(w) * uint(c)
		for i := 0; i < n; i++ {
			if points[i].Infinity {
				continue
			}
			limb := shift / 64
			off := shift % 64
			d := canon[i][limb] >> off
			if off+c > 64 && limb+1 < 4 {
				d |= canon[i][limb+1] << (64 - off)
			}
			d &= 1<<c - 1
			if d != 0 {
				buckets[d-1].AddMixed(&buckets[d-1], &points[i])
			}
		}
		// Collapse buckets: sum_{d} d * bucket[d-1] via the running-sum
		// trick (two additions per bucket).
		var sum, total G1Jac
		sum.SetInfinity()
		total.SetInfinity()
		for b := len(buckets) - 1; b >= 0; b-- {
			sum.Add(&sum, &buckets[b])
			total.Add(&total, &sum)
		}
		acc.Add(&acc, &total)
	}
	return acc
}

// g1HEff is the RFC 9380 effective cofactor for G1, h_eff = 1 - x =
// 0xd201000000010001: multiplying by it maps any curve point into the
// order-r subgroup with a 64-bit scalar instead of the 126-bit true
// cofactor (Wahby-Boneh). The image differs from [h]P by a subgroup
// automorphism, which is irrelevant for hashing.
var g1HEff = [1]uint64{blsX + 1}

// g1ClearCofactorFast maps a curve point into the subgroup via h_eff,
// returning Jacobian coordinates so hashing hot paths can batch the
// affine normalization. h_eff is a fixed 64-bit scalar of Hamming
// weight 7, so a plain double-and-add (no table, no recoding) is the
// cheapest evaluation. The retained [h]P path stays in G1ClearCofactor
// for cross-checks.
func g1ClearCofactorFast(p *G1Affine) G1Jac {
	var acc G1Jac
	acc.SetInfinity()
	if p.Infinity {
		return acc
	}
	k := g1HEff[0]
	for i := 63 - bits.LeadingZeros64(k); i >= 0; i-- {
		acc.Double(&acc)
		if (k>>uint(i))&1 == 1 {
			acc.AddMixed(&acc, p)
		}
	}
	return acc
}
