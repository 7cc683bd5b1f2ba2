// Package ff implements the finite fields underlying the BLS12-381 pairing
// curve: the 381-bit base field Fp, the 255-bit scalar field Fr, and the
// extension tower Fp2 -> Fp6 -> Fp12 used by the pairing.
//
// All arithmetic is constant-size (fixed limb counts) Montgomery arithmetic
// built on math/bits; math/big is used only at package init to derive
// Montgomery constants and inside slow paths that are explicitly documented
// (encoding and decoding, exponent bits). The implementation is not
// constant-time; it is a reproduction substrate, not a hardened library.
package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// FpBytes is the size of a serialized Fp element (big-endian).
const FpBytes = 48

// fpLimbs is the limb count of Fp (6 x 64 = 384 bits for a 381-bit modulus).
const fpLimbs = 6

// Fp is an element of the BLS12-381 base field, stored in Montgomery form
// (value * 2^384 mod p). The zero value is the field's zero element.
type Fp [fpLimbs]uint64

// fpModulus is p = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf
// 6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab, little-endian limbs.
var fpModulus = Fp{
	0xb9feffffffffaaab,
	0x1eabfffeb153ffff,
	0x6730d2a0f6b0f624,
	0x64774b84f38512bf,
	0x4b1ba7b6434bacd7,
	0x1a0111ea397fe69a,
}

var (
	// fpP is the modulus as a big.Int (read-only after init).
	fpP = limbsToBig(fpModulus[:])
	// fpInv = -p^-1 mod 2^64, the Montgomery reduction constant.
	fpInv = montInv(fpModulus[0])
	// fpOne is 1 in Montgomery form (R mod p).
	fpOne = bigToFpRaw(new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 384), fpP))
	// fpRSquare is R^2 mod p, used to convert into Montgomery form.
	fpRSquare = bigToFpRaw(new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 768), fpP))
	// fpSqrtExp = (p+1)/4; p = 3 mod 4, so a^fpSqrtExp is a square root of a
	// whenever a is a quadratic residue.
	fpSqrtExp = new(big.Int).Rsh(new(big.Int).Add(fpP, big.NewInt(1)), 2)
	// fpSqrtDigits is fpSqrtExp as window digits, for expDigits.
	fpSqrtDigits = windowDigits(fpSqrtExp)
)

// montInv computes -m^-1 mod 2^64 by Newton iteration.
func montInv(m uint64) uint64 {
	inv := m // 3-bit correct seed for odd m? use standard iteration from m itself
	for i := 0; i < 63; i++ {
		inv *= 2 - m*inv
	}
	return -inv
}

// limbsToBig converts little-endian limbs to a big.Int.
func limbsToBig(limbs []uint64) *big.Int {
	v := new(big.Int)
	for i := len(limbs) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(limbs[i]))
	}
	return v
}

// bigToLimbs writes v (0 <= v < 2^(64*n)) into little-endian limbs.
func bigToLimbs(v *big.Int, limbs []uint64) {
	tmp := new(big.Int).Set(v)
	mask := new(big.Int).SetUint64(^uint64(0))
	word := new(big.Int)
	for i := range limbs {
		limbs[i] = word.And(tmp, mask).Uint64()
		tmp.Rsh(tmp, 64)
	}
}

// bigToFpRaw stores v directly into limbs without Montgomery conversion.
func bigToFpRaw(v *big.Int) Fp {
	var z Fp
	bigToLimbs(v, z[:])
	return z
}

// FpZero returns the additive identity.
func FpZero() Fp { return Fp{} }

// FpOne returns the multiplicative identity.
func FpOne() Fp { return fpOne }

// FpModulus returns a copy of the field modulus.
func FpModulus() *big.Int { return new(big.Int).Set(fpP) }

// SetZero sets z to 0 and returns it.
func (z *Fp) SetZero() *Fp { *z = Fp{}; return z }

// SetOne sets z to 1 and returns it.
func (z *Fp) SetOne() *Fp { *z = fpOne; return z }

// Set copies a into z and returns z.
func (z *Fp) Set(a *Fp) *Fp { *z = *a; return z }

// IsZero reports whether z is the zero element.
func (z *Fp) IsZero() bool {
	return z[0]|z[1]|z[2]|z[3]|z[4]|z[5] == 0
}

// IsOne reports whether z is the one element.
func (z *Fp) IsOne() bool { return *z == fpOne }

// Equal reports whether z == a.
func (z *Fp) Equal(a *Fp) bool { return *z == *a }

// SetUint64 sets z to the small integer v.
func (z *Fp) SetUint64(v uint64) *Fp {
	*z = Fp{v}
	return z.toMont()
}

// SetBig sets z to v mod p. v may be negative or larger than p.
func (z *Fp) SetBig(v *big.Int) *Fp {
	m := new(big.Int).Mod(v, fpP)
	bigToLimbs(m, z[:])
	return z.toMont()
}

// Big returns the canonical (non-Montgomery) value of z.
func (z *Fp) Big() *big.Int {
	n := z.fromMont()
	return limbsToBig(n[:])
}

// SetBytes interprets in as a 48-byte big-endian integer and sets z to it.
// It returns an error if in is not exactly 48 bytes or is >= p.
func (z *Fp) SetBytes(in []byte) error {
	if len(in) != FpBytes {
		return fmt.Errorf("ff: Fp encoding must be %d bytes, got %d", FpBytes, len(in))
	}
	v := new(big.Int).SetBytes(in)
	if v.Cmp(fpP) >= 0 {
		return errors.New("ff: Fp encoding not canonical (>= p)")
	}
	bigToLimbs(v, z[:])
	z.toMont()
	return nil
}

// SetBytesWide sets z to the big-endian integer in (any length) reduced
// mod p and returns z. Unlike SetBig it allocates nothing: it folds
// 32-byte chunks (each below p, so each is a canonical residue) in by
// Horner's rule, acc = acc*2^256 + chunk, in Montgomery form. Hash to
// field calls it once per try-and-increment attempt.
func (z *Fp) SetBytesWide(in []byte) *Fp {
	const chunk = 32
	var shift Fp // 2^256
	shift[chunk/8] = 1
	shift.toMont()
	var acc Fp
	n := len(in) % chunk
	if n == 0 {
		n = chunk
	}
	for len(in) > 0 {
		var c Fp
		for i, b := range in[:n] {
			bit := 8 * (n - 1 - i)
			c[bit/64] |= uint64(b) << (bit % 64)
		}
		c.toMont()
		acc.Mul(&acc, &shift)
		acc.Add(&acc, &c)
		in, n = in[n:], chunk
	}
	*z = acc
	return z
}

// Bytes returns the canonical 48-byte big-endian encoding of z.
func (z *Fp) Bytes() [FpBytes]byte {
	var out [FpBytes]byte
	z.Big().FillBytes(out[:])
	return out
}

// String implements fmt.Stringer using the canonical hex value.
func (z *Fp) String() string { return "0x" + z.Big().Text(16) }

// RandFp returns a uniformly random field element from crypto/rand.
func RandFp() (Fp, error) {
	v, err := rand.Int(rand.Reader, fpP)
	if err != nil {
		return Fp{}, fmt.Errorf("ff: sampling Fp: %w", err)
	}
	var z Fp
	z.SetBig(v)
	return z, nil
}

// toMont converts z from canonical to Montgomery form in place.
func (z *Fp) toMont() *Fp { return z.Mul(z, &fpRSquare) }

// fromMont returns the canonical-form limbs of z (Montgomery reduce by 1).
func (z *Fp) fromMont() Fp {
	one := Fp{1}
	var out Fp
	out.Mul(z, &one)
	return out
}

// Add sets z = a + b and returns z.
func (z *Fp) Add(a, b *Fp) *Fp {
	fpAdd(z, a, b)
	return z
}

// Double sets z = 2a and returns z.
func (z *Fp) Double(a *Fp) *Fp { return z.Add(a, a) }

// Sub sets z = a - b and returns z.
func (z *Fp) Sub(a, b *Fp) *Fp {
	fpSub(z, a, b)
	return z
}

// fpAddGo, fpSubGo, Neg and fpReduce are unrolled over constant limb
// indices and select their result with a mask instead of a branch: the
// condition (did the sum reach p, did the difference borrow) is a coin
// flip on field data, so a branch there mispredicts half the time. An
// Fp2 product spends a quarter of its time in these, and the pairing's
// line and squaring formulas are mostly additions. fpAddGo and fpSubGo
// are Add and Sub where there is no assembly (fp_noasm.go), and the
// references the amd64 kernels are pinned against.

// fpAddGo sets z = a + b.
func fpAddGo(z, a, b *Fp) {
	var c uint64
	z[0], c = bits.Add64(a[0], b[0], 0)
	z[1], c = bits.Add64(a[1], b[1], c)
	z[2], c = bits.Add64(a[2], b[2], c)
	z[3], c = bits.Add64(a[3], b[3], c)
	z[4], c = bits.Add64(a[4], b[4], c)
	z[5], _ = bits.Add64(a[5], b[5], c)
	// a, b < p < 2^381 so no carry out of the top limb.
	fpReduce(z)
}

// fpSubGo sets z = a - b.
func fpSubGo(z, a, b *Fp) {
	t0, br := bits.Sub64(a[0], b[0], 0)
	t1, br := bits.Sub64(a[1], b[1], br)
	t2, br := bits.Sub64(a[2], b[2], br)
	t3, br := bits.Sub64(a[3], b[3], br)
	t4, br := bits.Sub64(a[4], b[4], br)
	t5, br := bits.Sub64(a[5], b[5], br)
	// Add p back iff the subtraction borrowed.
	mask := -br
	var c uint64
	z[0], c = bits.Add64(t0, fpModulus[0]&mask, 0)
	z[1], c = bits.Add64(t1, fpModulus[1]&mask, c)
	z[2], c = bits.Add64(t2, fpModulus[2]&mask, c)
	z[3], c = bits.Add64(t3, fpModulus[3]&mask, c)
	z[4], c = bits.Add64(t4, fpModulus[4]&mask, c)
	z[5], _ = bits.Add64(t5, fpModulus[5]&mask, c)
}

// Neg sets z = -a and returns z.
func (z *Fp) Neg(a *Fp) *Fp {
	// p - a, masked to zero when a is zero (p - 0 is not reduced).
	nz := a[0] | a[1] | a[2] | a[3] | a[4] | a[5]
	mask := -((nz | -nz) >> 63)
	t0, br := bits.Sub64(fpModulus[0], a[0], 0)
	t1, br := bits.Sub64(fpModulus[1], a[1], br)
	t2, br := bits.Sub64(fpModulus[2], a[2], br)
	t3, br := bits.Sub64(fpModulus[3], a[3], br)
	t4, br := bits.Sub64(fpModulus[4], a[4], br)
	t5, _ := bits.Sub64(fpModulus[5], a[5], br)
	z[0], z[1], z[2] = t0&mask, t1&mask, t2&mask
	z[3], z[4], z[5] = t3&mask, t4&mask, t5&mask
	return z
}

// fpReduce conditionally subtracts p from t so that t < p.
func fpReduce(t *Fp) {
	s0, br := bits.Sub64(t[0], fpModulus[0], 0)
	s1, br := bits.Sub64(t[1], fpModulus[1], br)
	s2, br := bits.Sub64(t[2], fpModulus[2], br)
	s3, br := bits.Sub64(t[3], fpModulus[3], br)
	s4, br := bits.Sub64(t[4], fpModulus[4], br)
	s5, br := bits.Sub64(t[5], fpModulus[5], br)
	// Keep t where the subtraction borrowed (t < p), else take t - p.
	keep := -br
	t[0] = s0 ^ ((s0 ^ t[0]) & keep)
	t[1] = s1 ^ ((s1 ^ t[1]) & keep)
	t[2] = s2 ^ ((s2 ^ t[2]) & keep)
	t[3] = s3 ^ ((s3 ^ t[3]) & keep)
	t[4] = s4 ^ ((s4 ^ t[4]) & keep)
	t[5] = s5 ^ ((s5 ^ t[5]) & keep)
}

// fpMontMulGeneric sets z = a*b*R^-1 mod p (CIOS Montgomery multiplication).
func fpMontMulGeneric(z, a, b *Fp) {
	var t [fpLimbs + 2]uint64
	for i := 0; i < fpLimbs; i++ {
		// t += a * b[i]
		var carry uint64
		for j := 0; j < fpLimbs; j++ {
			hi, lo := bits.Mul64(a[j], b[i])
			var c uint64
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[j] = lo
			carry = hi
		}
		var c uint64
		t[fpLimbs], c = bits.Add64(t[fpLimbs], carry, 0)
		t[fpLimbs+1] = c

		// Montgomery reduction step.
		m := t[0] * fpInv
		hi, lo := bits.Mul64(m, fpModulus[0])
		_, c = bits.Add64(lo, t[0], 0)
		carry = hi + c
		for j := 1; j < fpLimbs; j++ {
			hi, lo = bits.Mul64(m, fpModulus[j])
			var c2 uint64
			lo, c2 = bits.Add64(lo, t[j], 0)
			hi += c2
			lo, c2 = bits.Add64(lo, carry, 0)
			hi += c2
			t[j-1] = lo
			carry = hi
		}
		t[fpLimbs-1], c = bits.Add64(t[fpLimbs], carry, 0)
		t[fpLimbs] = t[fpLimbs+1] + c
	}
	copy(z[:], t[:fpLimbs])
	// Result < 2p, and 2p < 2^384, so t[fpLimbs] == 0 here; reduce once.
	fpReduce(z)
}

// fpMulADX selects the MULX/ADX assembly multiply (fp_amd64.s) for
// Fp.Mul. It is set once, at init, from CPUID: no flag, option or
// environment variable reaches it. Without it Fp.Mul runs fpMontMul.
var fpMulADX = cpuHasADX()

// useGoKernels points Fp.Mul at fpMontMul until restore is called, so
// tests keep the fallback covered on a CPU that has ADX. It is a test
// seam, not API: tests outside ff reach it with go:linkname.
func useGoKernels() (restore func()) {
	saved := fpMulADX
	fpMulADX = false
	return func() { fpMulADX = saved }
}

// Mul sets z = a * b and returns z. Every Montgomery kernel reads all
// limbs of a and b before it writes z, so z may alias either operand.
func (z *Fp) Mul(a, b *Fp) *Fp {
	fpMul(z, a, b)
	return z
}

// Square sets z = a^2 and returns z.
func (z *Fp) Square(a *Fp) *Fp { return z.Mul(a, a) }

// MulUint64 sets z = a * v for a small scalar v.
func (z *Fp) MulUint64(a *Fp, v uint64) *Fp {
	var s Fp
	s.SetUint64(v)
	return z.Mul(a, &s)
}

// Exp sets z = a^e for a non-negative exponent e and returns z.
func (z *Fp) Exp(a *Fp, e *big.Int) *Fp {
	if e.Sign() < 0 {
		panic("ff: negative exponent")
	}
	base := *a
	var out Fp
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

// Inverse sets z = a^-1 and returns z. Inverting zero yields zero.
//
// It is Kaliski's almost Montgomery inverse, a binary extended GCD on
// the limbs: on the Montgomery representative x = aR it finds
// x^-1 * 2^k for some k in [381, 762] with shifts, additions and
// subtractions only, and one multiplication by 2^(768-k) turns that
// into (a^-1)R. It allocates nothing and is variable-time (its steps
// follow a's bits), like the wNAF scalar multiplication before it.
func (z *Fp) Inverse(a *Fp) *Fp {
	if a.IsZero() {
		return z.SetZero()
	}
	// Invariants: p = u*s + v*r, x*s = v*2^k and x*r = -u*2^k (mod p).
	// While u, v >= 1 the first bounds r and s by p, so they fit the
	// limbs; each step halves u or v at least once, and k counts halvings.
	u, v := fpModulus, *a
	var r, s Fp
	s[0] = 1
	k := fpShrOdd(&v) // r = 0: its matching doubling is a no-op
	for {
		if fpGreater(&u, &v) { // both odd: u - v is even and positive
			fpSubRaw(&u, &v)
			fpAddRaw(&r, &s)
			t := fpShrOdd(&u)
			fpShl(&s, t)
			k += t
			continue
		}
		fpSubRaw(&v, &u)
		fpAddRaw(&s, &r)
		if v.IsZero() { // u = v = gcd = 1
			fpShl(&r, 1) // r < 2p < 2^382
			k++
			break
		}
		t := fpShrOdd(&v)
		fpShl(&r, t)
		k += t
	}
	fpReduce(&r)
	r.Neg(&r) // x^-1 * 2^k
	// Times 2^e, e = 768-k in [6, 387], as a product with 2^e in
	// Montgomery form: 2^e itself when it is below p, else 2^380 doubled.
	e, doublings := 2*64*fpLimbs-k, 0
	if e > 380 {
		e, doublings = 380, e-380
	}
	var c Fp
	c[e/64] = 1 << (e % 64)
	c.toMont()
	for ; doublings > 0; doublings-- {
		c.Double(&c)
	}
	return z.Mul(&r, &c)
}

// fpGreater reports whether a > b as integers.
func fpGreater(a, b *Fp) bool {
	for i := fpLimbs - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return false
}

// fpSubRaw sets a = a - b as integers; a >= b.
func fpSubRaw(a, b *Fp) {
	var br uint64
	a[0], br = bits.Sub64(a[0], b[0], 0)
	a[1], br = bits.Sub64(a[1], b[1], br)
	a[2], br = bits.Sub64(a[2], b[2], br)
	a[3], br = bits.Sub64(a[3], b[3], br)
	a[4], br = bits.Sub64(a[4], b[4], br)
	a[5], _ = bits.Sub64(a[5], b[5], br)
}

// fpAddRaw sets a = a + b as integers; the sum fits 384 bits.
func fpAddRaw(a, b *Fp) {
	var c uint64
	a[0], c = bits.Add64(a[0], b[0], 0)
	a[1], c = bits.Add64(a[1], b[1], c)
	a[2], c = bits.Add64(a[2], b[2], c)
	a[3], c = bits.Add64(a[3], b[3], c)
	a[4], c = bits.Add64(a[4], b[4], c)
	a[5], _ = bits.Add64(a[5], b[5], c)
}

// fpShrOdd shifts a nonzero a right until it is odd and returns the
// shift.
func fpShrOdd(a *Fp) int {
	t := 0
	for a[0] == 0 {
		a[0], a[1], a[2], a[3], a[4], a[5] = a[1], a[2], a[3], a[4], a[5], 0
		t += 64
	}
	n := uint(bits.TrailingZeros64(a[0]))
	a[0] = a[0]>>n | a[1]<<(64-n)
	a[1] = a[1]>>n | a[2]<<(64-n)
	a[2] = a[2]>>n | a[3]<<(64-n)
	a[3] = a[3]>>n | a[4]<<(64-n)
	a[4] = a[4]>>n | a[5]<<(64-n)
	a[5] >>= n
	return t + int(n)
}

// fpShl shifts a left by t bits; the result fits 384 bits.
func fpShl(a *Fp, t int) {
	for ; t >= 64; t -= 64 {
		a[0], a[1], a[2], a[3], a[4], a[5] = 0, a[0], a[1], a[2], a[3], a[4]
	}
	n := uint(t)
	a[5] = a[5]<<n | a[4]>>(64-n)
	a[4] = a[4]<<n | a[3]>>(64-n)
	a[3] = a[3]<<n | a[2]>>(64-n)
	a[2] = a[2]<<n | a[1]>>(64-n)
	a[1] = a[1]<<n | a[0]>>(64-n)
	a[0] <<= n
}

// window is the digit width of the fixed-exponent ladders.
const window = 4

// windowDigits returns e's base-2^window digits, most significant
// first (e > 0).
func windowDigits(e *big.Int) []uint8 {
	n := (e.BitLen() + window - 1) / window
	d := make([]uint8, n)
	for i := range d {
		for b := window - 1; b >= 0; b-- {
			d[n-1-i] = d[n-1-i]<<1 | uint8(e.Bit(i*window+b))
		}
	}
	return d
}

// expDigits sets z = a^e for an exponent given by windowDigits: one
// table of a^0..a^15, then window squarings and at most one
// multiplication per digit, against one multiplication per set bit of
// Exp's loop. It allocates nothing.
func (z *Fp) expDigits(a *Fp, digits []uint8) *Fp {
	var tab [1 << window]Fp
	tab[0], tab[1] = fpOne, *a
	for i := 2; i < len(tab); i++ {
		tab[i].Mul(&tab[i-1], a)
	}
	out := tab[digits[0]]
	for _, d := range digits[1:] {
		for j := 0; j < window; j++ {
			out.Square(&out)
		}
		if d != 0 {
			out.Mul(&out, &tab[d])
		}
	}
	*z = out
	return z
}

// Sqrt sets z to a square root of a and returns (z, true) if a is a
// quadratic residue, or (z unchanged, false) otherwise. A non-residue
// costs one Legendre symbol, not an exponentiation: hash to G1 tries
// about two candidates per point, and half of them fail.
func (z *Fp) Sqrt(a *Fp) (*Fp, bool) {
	if a.legendre() < 0 {
		return z, false
	}
	var s Fp
	s.expDigits(a, fpSqrtDigits)
	var chk Fp
	chk.Square(&s)
	if !chk.Equal(a) {
		return z, false
	}
	*z = s
	return z, true
}

// IsQuadraticResidue reports whether a is a square in Fp (0 counts as one).
func (z *Fp) IsQuadraticResidue() bool { return z.legendre() >= 0 }

// legendre returns the Legendre symbol (a/p): 0, 1 or -1. It is the
// binary Jacobi algorithm on the limbs, Inverse's loop without the
// cofactors: shifting out 2^t flips the sign when t is odd and the
// modulus is 3 or 5 mod 8, and swapping two odd values flips it when
// both are 3 mod 4 (reciprocity). The Montgomery representative aR has
// a's symbol, since R = 2^384 is a square. Variable-time, like Inverse.
func (a *Fp) legendre() int {
	u, v := *a, fpModulus
	x, n := &u, &v   // the symbol is (x/n); swapping them is a pointer swap
	var flips uint64 // bit 0: the sign so far; n is odd throughout
	for !x.IsZero() {
		// n = 3 or 5 mod 8 exactly when its bits 1 and 2 differ.
		flips ^= uint64(fpShrOdd(x)) & (n[0]>>1 ^ n[0]>>2)
		if fpGreater(n, x) {
			x, n = n, x
			flips ^= x[0] >> 1 & (n[0] >> 1) // both 3 mod 4
		}
		fpSubRaw(x, n) // both odd, x >= n: even, or zero when x = n
	}
	if *n != (Fp{1}) { // gcd(a, p) = p: a = 0
		return 0
	}
	return 1 - 2*int(flips&1)
}

// Sign returns the "sign" of z defined as the parity of the canonical value,
// used to disambiguate square roots during point compression.
func (z *Fp) Sign() int {
	n := z.fromMont()
	return int(n[0] & 1)
}

// Cmp compares the canonical values of z and a, returning -1, 0 or 1.
func (z *Fp) Cmp(a *Fp) int {
	zn, an := z.fromMont(), a.fromMont()
	for i := fpLimbs - 1; i >= 0; i-- {
		if zn[i] < an[i] {
			return -1
		}
		if zn[i] > an[i] {
			return 1
		}
	}
	return 0
}
