package ff

import (
	"math/big"
	"testing"
	"testing/quick"
)

func randFp2(t *testing.T) Fp2 {
	t.Helper()
	c0, err := RandFp()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := RandFp()
	if err != nil {
		t.Fatal(err)
	}
	return Fp2{C0: c0, C1: c1}
}

func randFp6(t *testing.T) Fp6 {
	t.Helper()
	return Fp6{C0: randFp2(t), C1: randFp2(t), C2: randFp2(t)}
}

func randFp12(t *testing.T) Fp12 {
	t.Helper()
	return Fp12{C0: randFp6(t), C1: randFp6(t)}
}

func TestFp2FieldAxioms(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b, c := randFp2(t), randFp2(t), randFp2(t)
		var ab, bc, l, r Fp2
		// associativity of multiplication
		l.Mul(ab.Mul(&a, &b), &c)
		r.Mul(&a, bc.Mul(&b, &c))
		if l != r {
			t.Fatal("Fp2 mul not associative")
		}
		// distributivity
		var s, d1, d2 Fp2
		s.Add(&b, &c)
		l.Mul(&a, &s)
		r.Add(d1.Mul(&a, &b), d2.Mul(&a, &c))
		if l != r {
			t.Fatal("Fp2 mul not distributive")
		}
		// inverse
		if !a.IsZero() {
			var inv, prod Fp2
			inv.Inverse(&a)
			prod.Mul(&a, &inv)
			if !prod.IsOne() {
				t.Fatal("Fp2 inverse failed")
			}
		}
		// square consistency
		var sq, mm Fp2
		sq.Square(&a)
		mm.Mul(&a, &a)
		if sq != mm {
			t.Fatal("Fp2 square != mul")
		}
	}
}

func TestFp2USquaredIsMinusOne(t *testing.T) {
	u := Fp2{C1: fpOne}
	var sq Fp2
	sq.Square(&u)
	var minusOne Fp2
	minusOne.SetOne()
	minusOne.Neg(&minusOne)
	if sq != minusOne {
		t.Fatal("u^2 != -1")
	}
}

func TestFp2MulByNonResidue(t *testing.T) {
	f := func(aw, bw [6]uint64) bool {
		a0, _ := fpFromWords(aw)
		a1, _ := fpFromWords(bw)
		a := Fp2{C0: a0, C1: a1}
		xi := Fp2NonResidue()
		var viaMul, viaFast Fp2
		viaMul.Mul(&a, &xi)
		viaFast.MulByNonResidue(&a)
		return viaMul == viaFast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFp2Sqrt(t *testing.T) {
	for i := 0; i < 5; i++ {
		a := randFp2(t)
		var sq Fp2
		sq.Square(&a)
		var root Fp2
		if _, ok := root.Sqrt(&sq); !ok {
			t.Fatal("square reported as non-residue")
		}
		var chk Fp2
		chk.Square(&root)
		if chk != sq {
			t.Fatal("sqrt does not square back")
		}
	}
}

func TestFp6FieldAxioms(t *testing.T) {
	for i := 0; i < 10; i++ {
		a, b, c := randFp6(t), randFp6(t), randFp6(t)
		var ab, bc, l, r Fp6
		l.Mul(ab.Mul(&a, &b), &c)
		r.Mul(&a, bc.Mul(&b, &c))
		if l != r {
			t.Fatal("Fp6 mul not associative")
		}
		var s, d1, d2 Fp6
		s.Add(&b, &c)
		l.Mul(&a, &s)
		r.Add(d1.Mul(&a, &b), d2.Mul(&a, &c))
		if l != r {
			t.Fatal("Fp6 mul not distributive")
		}
		if !a.IsZero() {
			var inv, prod Fp6
			inv.Inverse(&a)
			prod.Mul(&a, &inv)
			if !prod.IsOne() {
				t.Fatal("Fp6 inverse failed")
			}
		}
	}
}

func TestFp6VCubedIsXi(t *testing.T) {
	v := Fp6{C1: Fp2One()}
	var v2, v3 Fp6
	v2.Mul(&v, &v)
	v3.Mul(&v2, &v)
	want := Fp6{C0: Fp2NonResidue()}
	if v3 != want {
		t.Fatal("v^3 != xi")
	}
	// MulByV must agree with multiplication by v.
	a := randFp6(t)
	var fast, slow Fp6
	fast.MulByV(&a)
	slow.Mul(&a, &v)
	if fast != slow {
		t.Fatal("MulByV mismatch")
	}
}

func TestFp12FieldAxioms(t *testing.T) {
	for i := 0; i < 5; i++ {
		a, b, c := randFp12(t), randFp12(t), randFp12(t)
		var ab, bc, l, r Fp12
		l.Mul(ab.Mul(&a, &b), &c)
		r.Mul(&a, bc.Mul(&b, &c))
		if l != r {
			t.Fatal("Fp12 mul not associative")
		}
		if a != (Fp12{}) {
			var inv, prod Fp12
			inv.Inverse(&a)
			prod.Mul(&a, &inv)
			if !prod.IsOne() {
				t.Fatal("Fp12 inverse failed")
			}
		}
	}
}

func TestFp12WSquaredIsV(t *testing.T) {
	w := Fp12{C1: Fp6One()}
	var sq Fp12
	sq.Square(&w)
	want := Fp12{C0: Fp6{C1: Fp2One()}}
	if sq != want {
		t.Fatal("w^2 != v")
	}
}

// TestFp12FrobeniusMatchesExp is the load-bearing tower test: the Frobenius
// endomorphism computed via precomputed coefficients must equal raw
// exponentiation by p^k.
func TestFp12FrobeniusMatchesExp(t *testing.T) {
	a := randFp12(t)
	for k := 1; k <= 3; k++ {
		pk := new(big.Int).Exp(fpP, big.NewInt(int64(k)), nil)
		var viaExp, viaFrob Fp12
		viaExp.Exp(&a, pk)
		viaFrob.Frobenius(&a, k)
		if viaExp != viaFrob {
			t.Fatalf("Frobenius(%d) != a^(p^%d)", k, k)
		}
	}
}

func TestFp12ConjugateIsPow6(t *testing.T) {
	// a^(p^6) == conjugate(a) for all a in Fp12.
	a := randFp12(t)
	p6 := new(big.Int).Exp(fpP, big.NewInt(6), nil)
	var viaExp, viaConj Fp12
	viaExp.Exp(&a, p6)
	viaConj.Conjugate(&a)
	if viaExp != viaConj {
		t.Fatal("conjugate != a^(p^6)")
	}
}

func BenchmarkFp2Mul(b *testing.B) {
	x := Fp2{C0: fpOne, C1: fpOne}
	y := x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	x := Fp12One()
	y := Fp12{C0: Fp6One(), C1: Fp6One()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

// Exp sets z = a^e for non-negative e by square-and-multiply and
// returns z: the oracle the Frobenius tests compare against.
func (z *Fp12) Exp(a *Fp12, e *big.Int) *Fp12 {
	if e.Sign() < 0 {
		panic("ff: negative exponent")
	}
	base := *a
	out := Fp12One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		out.Square(&out)
		if e.Bit(i) == 1 {
			out.Mul(&out, &base)
		}
	}
	*z = out
	return z
}
