package ff

import (
	"math/big"
	"math/bits"
	"testing"
)

// The unrolled Montgomery kernels must agree with the retained generic
// loops on random operands and on the boundary values where reduction
// behavior differs.

// fpBoundaryResidues are the raw limb patterns where a carry chain or
// the final conditional subtraction changes behaviour: 0, 1, p-1, p-2,
// R mod p, R^2 mod p, each limb alone at its all-ones maximum, and every
// limb at its maximum below p (top limb p[5]-1, the rest all ones).
func fpBoundaryResidues() []Fp {
	one := big.NewInt(1)
	vals := []*big.Int{
		big.NewInt(0), one,
		new(big.Int).Sub(fpP, one), new(big.Int).Sub(fpP, big.NewInt(2)),
		limbsToBig(fpOne[:]), limbsToBig(fpRSquare[:]),
	}
	for i := 0; i < fpLimbs-1; i++ {
		var l Fp
		l[i] = ^uint64(0)
		vals = append(vals, limbsToBig(l[:]))
	}
	allMax := Fp{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), fpModulus[5] - 1}
	vals = append(vals, limbsToBig(allMax[:]))
	out := make([]Fp, len(vals))
	for i, v := range vals {
		if v.Cmp(fpP) >= 0 {
			panic("boundary residue not below p")
		}
		out[i] = bigToFpRaw(v)
	}
	return out
}

// TestFpMontMulUnrolledMatchesGeneric pins the production two-row
// kernel to the generic CIOS loop on every boundary pair and on random
// residues.
func TestFpMontMulUnrolledMatchesGeneric(t *testing.T) {
	cases := fpBoundaryResidues()
	for i := 0; i < 200; i++ {
		a, err := RandFp()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, a)
	}
	for i := range cases {
		for j := range cases {
			var fast, slow Fp
			fpMontMul(&fast, &cases[i], &cases[j])
			fpMontMulGeneric(&slow, &cases[i], &cases[j])
			if fast != slow {
				t.Fatalf("fpMontMul(%d, %d): unrolled != generic", i, j)
			}
			// In place, as Fp.Mul calls it.
			alias := cases[i]
			fpMontMul(&alias, &alias, &cases[j])
			if alias != slow {
				t.Fatalf("fpMontMul(%d, %d): aliased result != generic", i, j)
			}
		}
	}
}

func TestFrMontMulUnrolledMatchesGeneric(t *testing.T) {
	cases := []Fr{{}, frOne, frRSquare}
	var rm1 Fr
	copy(rm1[:], frModulus[:])
	rm1[0]--
	cases = append(cases, rm1)
	for i := 0; i < 200; i++ {
		a, err := RandFr()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, a)
	}
	for i := range cases {
		for j := range cases {
			var fast, slow Fr
			frMontMul(&fast, &cases[i], &cases[j])
			frMontMulGeneric(&slow, &cases[i], &cases[j])
			if fast != slow {
				t.Fatalf("frMontMul(%d, %d): unrolled != generic", i, j)
			}
		}
	}
}

// FuzzFpMontMul cross-checks the dispatched multiply (the MULX/ADX
// assembly where the CPU has it), the two-row kernel and the generic
// loop on arbitrary raw limb patterns (reduced mod p first so all see
// valid residues), seeded with every pair of boundary residues.
func FuzzFpMontMul(f *testing.F) {
	addFpPairSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 96 {
			return
		}
		a, b := fpPair(data)
		var asm, fast, slow Fp
		asm.Mul(&a, &b)
		fpMontMul(&fast, &a, &b)
		fpMontMulGeneric(&slow, &a, &b)
		if fast != slow {
			t.Fatalf("unrolled != generic for %x", data)
		}
		if asm != slow {
			t.Fatalf("Fp.Mul != generic for %x", data)
		}
	})
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

// frMontMulGeneric sets z = a*b*R^-1 mod r (CIOS Montgomery multiplication).
func frMontMulGeneric(z, a, b *Fr) {
	var t [frLimbs + 2]uint64
	for i := 0; i < frLimbs; i++ {
		var carry uint64
		for j := 0; j < frLimbs; j++ {
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
		t[frLimbs], c = bits.Add64(t[frLimbs], carry, 0)
		t[frLimbs+1] = c

		m := t[0] * frInv
		hi, lo := bits.Mul64(m, frModulus[0])
		_, c = bits.Add64(lo, t[0], 0)
		carry = hi + c
		for j := 1; j < frLimbs; j++ {
			hi, lo = bits.Mul64(m, frModulus[j])
			var c2 uint64
			lo, c2 = bits.Add64(lo, t[j], 0)
			hi += c2
			lo, c2 = bits.Add64(lo, carry, 0)
			hi += c2
			t[j-1] = lo
			carry = hi
		}
		t[frLimbs-1], c = bits.Add64(t[frLimbs], carry, 0)
		t[frLimbs] = t[frLimbs+1] + c
	}
	copy(z[:], t[:frLimbs])
	frReduce(z)
}
