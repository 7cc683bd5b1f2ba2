package ff

import (
	"crypto/rand"
	"math/big"
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
			if !fast.Equal(&slow) {
				t.Fatalf("fpMontMul(%d, %d): unrolled != generic", i, j)
			}
			// In place, as Fp.Mul calls it.
			alias := cases[i]
			fpMontMul(&alias, &alias, &cases[j])
			if !alias.Equal(&slow) {
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
			if !fast.Equal(&slow) {
				t.Fatalf("frMontMul(%d, %d): unrolled != generic", i, j)
			}
		}
	}
}

// FuzzFpMontMul cross-checks the unrolled kernel against the generic
// loop on arbitrary raw limb patterns (reduced mod p first so both see
// valid residues), seeded with every pair of boundary residues.
func FuzzFpMontMul(f *testing.F) {
	bounds := fpBoundaryResidues()
	for i := range bounds {
		for j := range bounds {
			seed := make([]byte, 96)
			limbsToBig(bounds[i][:]).FillBytes(seed[:48])
			limbsToBig(bounds[j][:]).FillBytes(seed[48:])
			f.Add(seed)
		}
	}
	seed := make([]byte, 96)
	if _, err := rand.Read(seed); err == nil {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 96 {
			return
		}
		a := bigToFpRaw(new(big.Int).Mod(new(big.Int).SetBytes(data[:48]), fpP))
		b := bigToFpRaw(new(big.Int).Mod(new(big.Int).SetBytes(data[48:]), fpP))
		var fast, slow Fp
		fpMontMul(&fast, &a, &b)
		fpMontMulGeneric(&slow, &a, &b)
		if !fast.Equal(&slow) {
			t.Fatalf("unrolled != generic for %x", data)
		}
	})
}
