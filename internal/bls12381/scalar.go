package bls12381

import (
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/ff"
)

// Scalar recoding for the fast arithmetic engine: width-w NAF digits
// extracted straight from canonical ff.Fr limbs (no big.Int round-trip
// on any hot path) and the GLV endomorphism decomposition for G1.
//
// The retained reference implementations are G1Jac.ScalarMultBig /
// G2Jac.ScalarMultBig (one-bit double-and-add); every fast path in this
// file and its siblings is pinned against them by equivalence and
// property tests in fast_test.go.

// scalarWindow is the wNAF width used for variable-base multiplication:
// digits are odd in [-15, 15], so each base needs an 8-entry table of
// odd multiples and a ~255-bit scalar costs ~255/6 additions instead of
// ~127.
const scalarWindow = 5

// limbsIsZero reports whether the little-endian limb vector is zero.
func limbsIsZero(n []uint64) bool {
	var acc uint64
	for _, l := range n {
		acc |= l
	}
	return acc == 0
}

// limbsSubSmall subtracts v (< 2^64) from the limb vector in place.
// The vector must be >= v.
func limbsSubSmall(n []uint64, v uint64) {
	borrow := v
	for i := 0; i < len(n) && borrow != 0; i++ {
		n[i], borrow = bits.Sub64(n[i], borrow, 0)
	}
}

// limbsAddSmall adds v (< 2^64) to the limb vector in place, dropping
// any carry out of the top limb (callers keep headroom).
func limbsAddSmall(n []uint64, v uint64) {
	carry := v
	for i := 0; i < len(n) && carry != 0; i++ {
		n[i], carry = bits.Add64(n[i], carry, 0)
	}
}

// limbsShr1 shifts the limb vector right by one bit in place.
func limbsShr1(n []uint64) {
	for i := 0; i < len(n); i++ {
		n[i] >>= 1
		if i+1 < len(n) {
			n[i] |= n[i+1] << 63
		}
	}
}

// wnafDigits recodes the little-endian limb scalar into width-w NAF
// digits, least significant first: each digit is zero or odd in
// (-2^(w-1), 2^(w-1)), and no two consecutive digits are nonzero. The
// recoding consumes one extra digit position beyond the scalar's bit
// length in the worst case.
func wnafDigits(k []uint64, w uint) []int8 {
	n := make([]uint64, len(k)+1) // headroom for the +1 carry of negative digits
	copy(n, k)
	out := make([]int8, 0, 64*len(k)+1)
	mask := uint64(1)<<w - 1
	half := uint64(1) << (w - 1)
	for !limbsIsZero(n) {
		var d int8
		if n[0]&1 == 1 {
			m := n[0] & mask
			if m >= half {
				d = int8(int64(m) - int64(mask+1))
				limbsAddSmall(n, mask+1-m)
			} else {
				d = int8(m)
				limbsSubSmall(n, m)
			}
		}
		out = append(out, d)
		limbsShr1(n)
	}
	return out
}

// GLV endomorphism constants. The curve E: y^2 = x^3 + 4 over Fp has
// j-invariant 0, so (x, y) -> (beta*x, y) for a primitive cube root of
// unity beta in Fp is an endomorphism phi with phi^2 + phi + 1 = 0. On
// the order-r subgroup phi acts as multiplication by
//
//	lambda = x^2 - 1  (x the BLS parameter),
//
// because lambda^2 + lambda + 1 = x^4 - x^2 + 1 = r ≡ 0 (mod r).
// lambda is ~128 bits, so writing k = k1 + k2*lambda by Euclidean
// division splits a 255-bit scalar into two ~128-bit halves: k1 = k mod
// lambda < lambda and k2 = k div lambda <= (r-1)/lambda = lambda + 1.
var (
	glvOnce sync.Once
	// glvLambda is x^2 - 1 as two little-endian limbs.
	glvLambda [2]uint64
	// glvMu is floor(2^256 / lambda), three little-endian limbs, for the
	// Barrett division in glvSplit.
	glvMu [3]uint64
	// glvBeta is the cube root of unity in Fp matching lambda (the other
	// root pairs with lambda^2 = -lambda-1).
	glvBeta ff.Fp
)

func glvInit() {
	hi, lo := bits.Mul64(blsX, blsX)
	var borrow uint64
	glvLambda[0], borrow = bits.Sub64(lo, 1, 0)
	glvLambda[1], _ = bits.Sub64(hi, 0, borrow)

	lambda := new(big.Int).SetUint64(glvLambda[1])
	lambda.Lsh(lambda, 64)
	lambda.Or(lambda, new(big.Int).SetUint64(glvLambda[0]))
	mu := new(big.Int).Lsh(big.NewInt(1), 256)
	mu.Div(mu, lambda)
	glvMu = bigToLimbs3(mu)

	// Find a primitive cube root of unity and pick the one that acts as
	// lambda (not lambda^2) on the subgroup, checked against the
	// generator with the retained naive multiplication.
	p := ff.FpModulus()
	exp := new(big.Int).Sub(p, big.NewInt(1))
	exp.Div(exp, big.NewInt(3))
	var beta ff.Fp
	for g := uint64(2); ; g++ {
		var base ff.Fp
		base.SetUint64(g)
		beta.Exp(&base, exp)
		if !beta.IsOne() {
			break
		}
	}
	gen := G1Generator()
	var genJac, lambdaG G1Jac
	genJac.FromAffine(&gen)
	lambdaG.ScalarMultBig(&genJac, lambda)
	want := lambdaG.Affine()
	phi := gen
	phi.X.Mul(&phi.X, &beta)
	if phi.Equal(&want) {
		glvBeta = beta
		return
	}
	beta.Square(&beta)
	phi = gen
	phi.X.Mul(&phi.X, &beta)
	if !phi.Equal(&want) {
		panic("bls12381: neither cube root of unity matches lambda")
	}
	glvBeta = beta
}

// g1Phi applies the GLV endomorphism (x, y) -> (beta*x, y) to an affine
// point. phi(P) = lambda*P for P in the order-r subgroup.
func g1Phi(p *G1Affine) G1Affine {
	glvOnce.Do(glvInit)
	out := *p
	if !p.Infinity {
		out.X.Mul(&out.X, &glvBeta)
	}
	return out
}

// GLVSplit decomposes a scalar as k = k1 + k2*lambda with k1 < lambda
// and k2 <= lambda+1 (both non-negative, both < 2^128), using a Barrett
// division by lambda on canonical limbs. The quotient estimate is at
// most two short, and both corrections always run, each keeping or
// dropping its subtraction by a mask, so no branch depends on k.
// FuzzGLVSplit and TestGLVSplitRecombines pin the recombination
// property.
func GLVSplit(k *ff.Fr) (k1, k2 [2]uint64) {
	glvOnce.Do(glvInit)
	kl := k.Canonical()

	// qHat = floor(k * mu / 2^256): full 4x3-limb product, take limbs
	// 4..5 (the true quotient is < 2^128 and qHat <= q <= qHat+2).
	var prod [7]uint64
	for i := 0; i < 3; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(kl[j], glvMu[i])
			var c uint64
			lo, c = bits.Add64(lo, prod[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			prod[i+j] = lo
			carry = hi
		}
		prod[i+4] += carry
	}
	q := [2]uint64{prod[4], prod[5]}

	// rem = k - q*lambda, then at most two subtractions of lambda.
	rem := kl
	var ql [4]uint64
	for i := 0; i < 2; i++ {
		var c, carry uint64
		hi, lo := bits.Mul64(q[i], glvLambda[0])
		lo, c = bits.Add64(lo, ql[i], 0)
		hi += c
		ql[i] = lo
		carry = hi
		hi, lo = bits.Mul64(q[i], glvLambda[1])
		lo, c = bits.Add64(lo, ql[i+1], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		ql[i+1] = lo
		ql[i+2] += hi
	}
	var borrow uint64
	for i := 0; i < 4; i++ {
		rem[i], borrow = bits.Sub64(rem[i], ql[i], borrow)
	}
	for range 2 {
		// d = rem - lambda; keep it (and bump q) unless it borrowed.
		var d [4]uint64
		d[0], borrow = bits.Sub64(rem[0], glvLambda[0], 0)
		d[1], borrow = bits.Sub64(rem[1], glvLambda[1], borrow)
		d[2], borrow = bits.Sub64(rem[2], 0, borrow)
		d[3], borrow = bits.Sub64(rem[3], 0, borrow)
		take := borrow - 1 // all ones when rem >= lambda
		for i := range rem {
			rem[i] ^= (rem[i] ^ d[i]) & take
		}
		var carry uint64
		q[0], carry = bits.Add64(q[0], take&1, 0)
		q[1] += carry
	}
	k1 = [2]uint64{rem[0], rem[1]}
	k2 = q
	return k1, k2
}

// bigToLimbs3 packs a non-negative big.Int (< 2^192) into three
// little-endian uint64 limbs via its byte encoding — NOT via Bits(),
// whose word size is platform-dependent (32-bit on 386/arm).
func bigToLimbs3(v *big.Int) [3]uint64 {
	var buf [24]byte
	v.FillBytes(buf[:])
	var out [3]uint64
	for i := range out {
		for j := 0; j < 8; j++ {
			out[i] |= uint64(buf[23-i*8-j]) << (uint(j) * 8)
		}
	}
	return out
}

// frModulusLimbs is the scalar-field order r as canonical little-endian
// limbs, for the wNAF subgroup checks. Derived from the big-endian byte
// encoding so the limbs are correct regardless of big.Word size.
var frModulusLimbs = func() [4]uint64 {
	var buf [32]byte
	ff.FrModulus().FillBytes(buf[:])
	var out [4]uint64
	for i := range out {
		for j := 0; j < 8; j++ {
			out[i] |= uint64(buf[31-i*8-j]) << (uint(j) * 8)
		}
	}
	return out
}()
