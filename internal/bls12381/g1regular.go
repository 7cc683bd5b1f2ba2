package bls12381

import "repro/internal/ff"

// Every G1 multiplication by a secret scalar is one regular GLV window
// loop: ScalarMult below runs it natively, and the blsapp sandbox module
// drives the same steps one host call per group operation. The pieces
// are the odd-multiple tables it reads, a table read that scans every
// entry, and the conditional subtraction that corrects for an even
// half, so each step takes the same path whatever the digit.

// G1OddTable holds the odd multiples T, 3T, 5T, ..., 15T of a point in
// affine form: every entry a signed odd 4-bit window digit can name.
type G1OddTable [8]G1Affine

// G1GLVTables returns the odd-multiple tables of p and of phi(p), the
// two bases of a GLV split scalar. The Jacobian multiples of p are
// normalized with one shared inversion; phi's table is then beta times
// each x. p is public (a message hash), so nothing here needs to be
// regular.
func G1GLVTables(p *G1Jac) (tbl, phiTbl G1OddTable) {
	var jac [len(tbl)]G1Jac
	g1OddMultiples(p, jac[:])
	copy(tbl[:], g1BatchAffine(jac[:]))
	for i := range tbl {
		phiTbl[i] = g1Phi(&tbl[i])
	}
	return tbl, phiTbl
}

// glvOddDigits recodes a GLV half k < 2^128 as k|1 = sum d_i*16^i in
// 32 odd digits in [-15, 15]:
//
//	d_i  = 2*((k >> (4i+1)) & 15) - 15   for i < 31
//	d_31 = 2*(k >> 125) + 1
//
// Shifts and masks of k's bits, with no branch.
func glvOddDigits(k [2]uint64) (d [32]int64) {
	lo, hi := k[0], k[1]
	for i := range 31 {
		d[i] = int64(lo>>1&15)*2 - 15
		lo, hi = lo>>4|hi<<60, hi>>4
	}
	d[31] = int64(lo>>1)*2 + 1
	return d
}

// ScalarMult sets p = k*q for a scalar field element k and returns p.
// It splits k = k1 + k2*lambda (GLVSplit), so k*q = k1*q + k2*phi(q),
// and signs each half as k|1 (glvOddDigits). From the top window down
// it doubles four times (not before the first window) and adds both
// halves' digit multiples, then subtracts q or phi(q) for each half
// that was even: 124 doublings, 64 digit additions and 2 corrections
// whatever k is. ScalarMultBig is the naive reference the equivalence
// tests pin this against.
//
// q MUST be in the order-r subgroup: the GLV identity phi(q) =
// [lambda]q holds only there, so for an on-curve point outside the
// subgroup the result differs from ScalarMultBig. Every point this
// package hands out (decoded via SetBytes, hashed, or derived from the
// generator) satisfies this; raw curve points must use ScalarMultBig.
func (p *G1Jac) ScalarMult(q *G1Jac, k *ff.Fr) *G1Jac {
	k1, k2 := GLVSplit(k)
	tbl, phiTbl := G1GLVTables(q)
	d1, d2 := glvOddDigits(k1), glvOddDigits(k2)
	var acc G1Jac
	acc.SetInfinity()
	for i := len(d1) - 1; i >= 0; i-- {
		if i < len(d1)-1 {
			acc.Double(&acc).Double(&acc).Double(&acc).Double(&acc)
		}
		acc.AddOddDigit(&acc, &tbl, d1[i])
		acc.AddOddDigit(&acc, &phiTbl, d2[i])
	}
	acc.SubFirstIf(&acc, &tbl, ^k1[0]&1)
	acc.SubFirstIf(&acc, &phiTbl, ^k2[0]&1)
	return p.Set(&acc)
}

// fpSelect sets z to a where mask is all ones and leaves z where it is
// zero, without a branch.
func fpSelect(z *ff.Fp, a *ff.Fp, mask uint64) {
	for i := range z {
		z[i] ^= (z[i] ^ a[i]) & mask
	}
}

// oddDigitEntry returns d*T for an odd digit -15 <= d <= 15 of the
// table of T. It reads all eight entries and negates y by a mask, so
// neither the entry named nor the sign changes which memory it touches
// or which branch it takes.
func oddDigitEntry(tbl *G1OddTable, d int64) G1Affine {
	sign := uint64(d >> 63) // all ones when d < 0
	idx := ((uint64(d) ^ sign) - sign) >> 1
	// Odd multiples 1..15 of a point of order r are the identity only
	// when the point is, so one entry speaks for the table.
	out := G1Affine{Infinity: tbl[0].Infinity}
	for j := range tbl {
		x := uint64(j) ^ idx
		mask := ((x | -x) >> 63) - 1 // all ones iff j == idx
		fpSelect(&out.X, &tbl[j].X, mask)
		fpSelect(&out.Y, &tbl[j].Y, mask)
	}
	var negY ff.Fp
	negY.Neg(&out.Y)
	fpSelect(&out.Y, &negY, sign)
	return out
}

// AddOddDigit sets p = a + d*T for an odd digit -15 <= d <= 15 of tbl,
// the table of T, and returns p. The table read is regular
// (oddDigitEntry); the mixed addition branches only on the exceptional
// cases of its formula, an identity or equal operand. A share-driven
// loop meets the identity at its first step for every share alike, and
// an equal operand with negligible probability.
func (p *G1Jac) AddOddDigit(a *G1Jac, tbl *G1OddTable, d int64) *G1Jac {
	e := oddDigitEntry(tbl, d)
	return p.AddMixed(a, &e)
}

// SubFirstIf sets p = a - T when even is 1 and p = a when it is 0, for
// the table of T, and returns p. Both results are computed and one is
// kept by a mask: the correction a regular window loop makes for a
// half it recoded as half+1.
func (p *G1Jac) SubFirstIf(a *G1Jac, tbl *G1OddTable, even uint64) *G1Jac {
	var t G1Jac
	t.AddMixed(a, new(G1Affine).Neg(&tbl[0]))
	mask := -(even & 1)
	out := *a
	fpSelect(&out.X, &t.X, mask)
	fpSelect(&out.Y, &t.Y, mask)
	fpSelect(&out.Z, &t.Z, mask)
	*p = out
	return p
}
