package bls12381

import (
	"math/big"
	"testing"

	"repro/internal/ff"
)

// TestHHTDecompositionIdentity verifies the integer identity the fast
// hard part relies on:
//
//	3*(p^4 - p^2 + 1)/r == (x-1)^2 * (x+p) * (x^2 + p^2 - 1) + 3
func TestHHTDecompositionIdentity(t *testing.T) {
	p := ff.FpModulus()
	r := ff.FrModulus()
	x := new(big.Int).Neg(new(big.Int).SetUint64(blsX)) // x is negative

	p2 := new(big.Int).Mul(p, p)
	p4 := new(big.Int).Mul(p2, p2)
	lhs := new(big.Int).Sub(p4, p2)
	lhs.Add(lhs, big.NewInt(1))
	rem := new(big.Int)
	lhs.DivMod(lhs, r, rem)
	if rem.Sign() != 0 {
		t.Fatal("r does not divide p^4 - p^2 + 1")
	}
	lhs.Mul(lhs, big.NewInt(3))

	xm1 := new(big.Int).Sub(x, big.NewInt(1))
	rhs := new(big.Int).Mul(xm1, xm1)
	rhs.Mul(rhs, new(big.Int).Add(x, p))
	x2 := new(big.Int).Mul(x, x)
	factor := new(big.Int).Add(x2, p2)
	factor.Sub(factor, big.NewInt(1))
	rhs.Mul(rhs, factor)
	rhs.Add(rhs, big.NewInt(3))

	if lhs.Cmp(rhs) != 0 {
		t.Fatal("HHT decomposition identity does not hold")
	}
}

// TestFastFinalExpMatchesPlain pins the fast final exponentiation against
// the cube of the plain big-exponent reference on real Miller-loop
// outputs (the fast exponent is 3x the plain one; see finalexp_fast.go).
func TestFastFinalExpMatchesPlain(t *testing.T) {
	for i := 0; i < 3; i++ {
		a, _ := ff.RandFrNonZero()
		b, _ := ff.RandFrNonZero()
		P := G1ScalarBaseMult(&a)
		Q := G2ScalarBaseMult(&b)
		f := MillerLoop(&P, &Q)
		fast := FinalExponentiation(&f)
		plainCubed := finalExpPlainCubed(&f)
		if !fast.Equal(&plainCubed) {
			t.Fatalf("fast final exponentiation != plain^3 (round %d)", i)
		}
	}
}

// TestCycExpNegXMatchesExp checks the cyclotomic exponentiation helper
// against generic exponentiation for subgroup elements.
func TestCycExpNegXMatchesExp(t *testing.T) {
	g1 := G1Generator()
	g2 := G2Generator()
	f := MillerLoop(&g1, &g2)
	c := finalExpEasy(&f) // cyclotomic element
	fast := cycExpNegX(&c)
	// Generic: c^|x| then invert (full inversion, not conjugation).
	var slow ff.Fp12
	slow.Exp(&c, new(big.Int).SetUint64(blsX))
	slow.Inverse(&slow)
	if !fast.Equal(&slow) {
		t.Fatal("cyclotomic x-exponentiation mismatch")
	}
}

func BenchmarkFinalExpFast(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	f := MillerLoop(&g1, &g2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FinalExponentiation(&f)
	}
}

func BenchmarkFinalExpPlain(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	f := MillerLoop(&g1, &g2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FinalExponentiationPlain(&f)
	}
}
