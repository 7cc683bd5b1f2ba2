package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// FrBytes is the size of a serialized Fr element (big-endian).
const FrBytes = 32

// frLimbs is the limb count of Fr (4 x 64 = 256 bits for a 255-bit modulus).
const frLimbs = 4

// Fr is an element of the BLS12-381 scalar field (the prime order r of the
// pairing groups), stored in Montgomery form. The zero value is zero.
type Fr [frLimbs]uint64

// frModulus is r = 0x73eda753299d7d483339d80809a1d805
// 53bda402fffe5bfeffffffff00000001, little-endian limbs.
var frModulus = Fr{
	0xffffffff00000001,
	0x53bda402fffe5bfe,
	0x3339d80809a1d805,
	0x73eda753299d7d48,
}

var (
	frR       = limbsToBig(frModulus[:])
	frInv     = montInv(frModulus[0])
	frOne     = bigToFrRaw(new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 256), frR))
	frRSquare = bigToFrRaw(new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 512), frR))
	frInvExp  = new(big.Int).Sub(frR, big.NewInt(2))
)

func bigToFrRaw(v *big.Int) Fr {
	var z Fr
	bigToLimbs(v, z[:])
	return z
}

// FrModulus returns a copy of the scalar field modulus r.
func FrModulus() *big.Int { return new(big.Int).Set(frR) }

// SetZero sets z to 0 and returns z.
func (z *Fr) SetZero() *Fr { *z = Fr{}; return z }

// SetOne sets z to 1 and returns z.
func (z *Fr) SetOne() *Fr { *z = frOne; return z }

// Set copies a into z and returns z.
func (z *Fr) Set(a *Fr) *Fr { *z = *a; return z }

// IsZero reports whether z is the zero element.
func (z *Fr) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// Equal reports whether z == a.
func (z *Fr) Equal(a *Fr) bool { return *z == *a }

// SetUint64 sets z to the small integer v.
func (z *Fr) SetUint64(v uint64) *Fr {
	*z = Fr{v}
	return z.toMont()
}

// SetBig sets z to v mod r. v may be negative or larger than r.
func (z *Fr) SetBig(v *big.Int) *Fr {
	m := new(big.Int).Mod(v, frR)
	bigToLimbs(m, z[:])
	return z.toMont()
}

// Big returns the canonical (non-Montgomery) value of z.
func (z *Fr) Big() *big.Int {
	n := z.fromMont()
	return limbsToBig(n[:])
}

// SetBytes interprets in as a 32-byte big-endian integer and sets z to it.
// It returns an error if in is not exactly 32 bytes or is >= r.
func (z *Fr) SetBytes(in []byte) error {
	if len(in) != FrBytes {
		return fmt.Errorf("ff: Fr encoding must be %d bytes, got %d", FrBytes, len(in))
	}
	v := new(big.Int).SetBytes(in)
	if v.Cmp(frR) >= 0 {
		return errors.New("ff: Fr encoding not canonical (>= r)")
	}
	bigToLimbs(v, z[:])
	z.toMont()
	return nil
}

// SetBytesWide reduces an arbitrary-length big-endian byte string mod r.
// Used to derive scalars from hash output without modulo bias concerns
// (callers should pass at least 48 bytes for uniformity).
func (z *Fr) SetBytesWide(in []byte) *Fr {
	return z.SetBig(new(big.Int).SetBytes(in))
}

// Canonical returns the canonical (non-Montgomery) value of z as four
// little-endian limbs. This is the representation the curve layer's
// wNAF recoding and Pippenger digit extraction consume: one Montgomery
// reduction, no big.Int allocation.
func (z *Fr) Canonical() [frLimbs]uint64 {
	return z.fromMont()
}

// Bytes returns the canonical 32-byte big-endian encoding of z.
func (z *Fr) Bytes() [FrBytes]byte {
	var out [FrBytes]byte
	z.Big().FillBytes(out[:])
	return out
}

// String implements fmt.Stringer using the canonical hex value.
func (z *Fr) String() string { return "0x" + z.Big().Text(16) }

// RandFr returns a uniformly random nonzero-allowed scalar from crypto/rand.
func RandFr() (Fr, error) {
	v, err := rand.Int(rand.Reader, frR)
	if err != nil {
		return Fr{}, fmt.Errorf("ff: sampling Fr: %w", err)
	}
	var z Fr
	z.SetBig(v)
	return z, nil
}

// RandFrNonZero returns a uniformly random nonzero scalar.
func RandFrNonZero() (Fr, error) {
	for {
		z, err := RandFr()
		if err != nil {
			return Fr{}, err
		}
		if !z.IsZero() {
			return z, nil
		}
	}
}

func (z *Fr) toMont() *Fr { return z.Mul(z, &frRSquare) }

func (z *Fr) fromMont() Fr {
	one := Fr{1}
	var out Fr
	frMontMul(&out, z, &one)
	return out
}

// Add sets z = a + b and returns z.
func (z *Fr) Add(a, b *Fr) *Fr {
	var t Fr
	var carry uint64
	for i := 0; i < frLimbs; i++ {
		t[i], carry = bits.Add64(a[i], b[i], carry)
	}
	frReduce(&t)
	*z = t
	return z
}

// Sub sets z = a - b and returns z.
func (z *Fr) Sub(a, b *Fr) *Fr {
	var t Fr
	var borrow uint64
	for i := 0; i < frLimbs; i++ {
		t[i], borrow = bits.Sub64(a[i], b[i], borrow)
	}
	if borrow != 0 {
		var carry uint64
		for i := 0; i < frLimbs; i++ {
			t[i], carry = bits.Add64(t[i], frModulus[i], carry)
		}
	}
	*z = t
	return z
}

// Neg sets z = -a and returns z.
func (z *Fr) Neg(a *Fr) *Fr {
	if a.IsZero() {
		return z.SetZero()
	}
	var t Fr
	var borrow uint64
	for i := 0; i < frLimbs; i++ {
		t[i], borrow = bits.Sub64(frModulus[i], a[i], borrow)
	}
	_ = borrow
	*z = t
	return z
}

func frReduce(t *Fr) {
	var s Fr
	var borrow uint64
	for i := 0; i < frLimbs; i++ {
		s[i], borrow = bits.Sub64(t[i], frModulus[i], borrow)
	}
	if borrow == 0 {
		*t = s
	}
}

// Mul sets z = a * b and returns z.
func (z *Fr) Mul(a, b *Fr) *Fr {
	var out Fr
	frMontMul(&out, a, b)
	*z = out
	return z
}

// Square sets z = a^2 and returns z.
func (z *Fr) Square(a *Fr) *Fr { return z.Mul(a, a) }

// Exp sets z = a^e for non-negative e and returns z.
func (z *Fr) Exp(a *Fr, e *big.Int) *Fr {
	if e.Sign() < 0 {
		panic("ff: negative exponent")
	}
	base := *a
	var out Fr
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
func (z *Fr) Inverse(a *Fr) *Fr {
	if a.IsZero() {
		return z.SetZero()
	}
	return z.Exp(a, frInvExp)
}
