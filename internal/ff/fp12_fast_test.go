package ff

import (
	"math/big"
	"testing"
)

// The pairing engine's three Fp12 fast paths (complex-method Square,
// MulBySparse035, Granger-Scott CyclotomicSquare) are pinned here
// against the dense Karatsuba Mul, which tower_test.go pins against
// the field axioms and raw exponentiation.

// squareDense is the retained reference squaring: the dense product
// Square used to alias.
func (z *Fp12) squareDense(a *Fp12) *Fp12 { return z.Mul(a, a) }

// sparse035Dense materializes c0 + c3*W^3 + c5*W^5 as a dense element.
func sparse035Dense(c0, c3, c5 *Fp2) Fp12 {
	var l Fp12
	l.C0.C0 = *c0
	l.C1.C1 = *c3
	l.C1.C2 = *c5
	return l
}

// toCyclotomic maps a != 0 into the cyclotomic subgroup with the easy
// part of the final exponentiation, a^((p^6-1)(p^2+1)).
func toCyclotomic(a *Fp12) Fp12 {
	var t, inv, fr Fp12
	t.Conjugate(a)
	inv.Inverse(a)
	t.Mul(&t, &inv)
	fr.Frobenius(&t, 2)
	t.Mul(&fr, &t)
	return t
}

// fp12EdgeCases are the elements where a formula error in one
// coordinate would hide behind zeros elsewhere: each basis power of W
// alone, plus 0, 1 and -1.
func fp12EdgeCases() []Fp12 {
	cases := []Fp12{Fp12Zero(), Fp12One()}
	var m1 Fp12
	m1.Neg(&cases[1])
	cases = append(cases, m1)
	for i := 0; i < 6; i++ {
		var e Fp12
		e.frobComponents()[i].SetOne()
		cases = append(cases, e)
	}
	return cases
}

func TestFp12SquareMatchesDense(t *testing.T) {
	cases := fp12EdgeCases()
	for i := 0; i < 64; i++ {
		cases = append(cases, randFp12(t))
	}
	for i := range cases {
		var fast, dense Fp12
		fast.Square(&cases[i])
		dense.squareDense(&cases[i])
		if !fast.Equal(&dense) {
			t.Fatalf("case %d: complex-method Square != dense Mul(a, a)", i)
		}
		// In-place use is how the Miller loop calls it.
		alias := cases[i]
		alias.Square(&alias)
		if !alias.Equal(&dense) {
			t.Fatalf("case %d: aliased Square != dense", i)
		}
	}
}

func TestFp12MulBySparse035MatchesDense(t *testing.T) {
	as := fp12EdgeCases()
	for i := 0; i < 16; i++ {
		as = append(as, randFp12(t))
	}
	zero, one := Fp2Zero(), Fp2One()
	coeffs := [][3]Fp2{
		{zero, zero, zero}, {one, zero, zero}, {zero, one, zero}, {zero, zero, one},
	}
	for i := 0; i < 8; i++ {
		coeffs = append(coeffs, [3]Fp2{randFp2(t), randFp2(t), randFp2(t)})
	}
	for i := range as {
		for j := range coeffs {
			c := &coeffs[j]
			l := sparse035Dense(&c[0], &c[1], &c[2])
			var fast, dense Fp12
			fast.MulBySparse035(&as[i], &c[0], &c[1], &c[2])
			dense.Mul(&as[i], &l)
			if !fast.Equal(&dense) {
				t.Fatalf("a=%d line=%d: MulBySparse035 != dense Mul", i, j)
			}
			alias := as[i]
			alias.MulBySparse035(&alias, &c[0], &c[1], &c[2])
			if !alias.Equal(&dense) {
				t.Fatalf("a=%d line=%d: aliased MulBySparse035 != dense", i, j)
			}
		}
	}
}

// FuzzFp12MulBySparse035: 18 Fp residues (12 for a, 2 each for c0, c3,
// c5), reduced mod p, must multiply identically through the sparse
// path and through the dense Mul of the materialized line.
func FuzzFp12MulBySparse035(f *testing.F) {
	const n = 18 * FpBytes
	f.Add(make([]byte, n))
	ones := make([]byte, n)
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(ones)
	ramp := make([]byte, n)
	for i := range ramp {
		ramp[i] = byte(i*131 + 7)
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != n {
			return
		}
		var e [18]Fp
		for i := range e {
			e[i].SetBig(new(big.Int).SetBytes(data[i*FpBytes : (i+1)*FpBytes]))
		}
		a := Fp12{
			C0: Fp6{Fp2{e[0], e[1]}, Fp2{e[2], e[3]}, Fp2{e[4], e[5]}},
			C1: Fp6{Fp2{e[6], e[7]}, Fp2{e[8], e[9]}, Fp2{e[10], e[11]}},
		}
		c0, c3, c5 := Fp2{e[12], e[13]}, Fp2{e[14], e[15]}, Fp2{e[16], e[17]}
		l := sparse035Dense(&c0, &c3, &c5)
		var fast, dense Fp12
		fast.MulBySparse035(&a, &c0, &c3, &c5)
		dense.Mul(&a, &l)
		if !fast.Equal(&dense) {
			t.Fatalf("sparse != dense for %x", data)
		}
	})
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	one := Fp12One()
	var got Fp12
	if got.CyclotomicSquare(&one); !got.IsOne() {
		t.Fatal("CyclotomicSquare(1) != 1")
	}
	for i := 0; i < 32; i++ {
		a := randFp12(t)
		c := toCyclotomic(&a)
		// Walk a chain so later inputs are themselves fast-path outputs.
		for step := 0; step < 4; step++ {
			var fast, want Fp12
			fast.CyclotomicSquare(&c)
			want.Square(&c)
			if !fast.Equal(&want) {
				t.Fatalf("element %d step %d: Granger-Scott square != Square", i, step)
			}
			c.CyclotomicSquare(&c) // aliased, as cycExpNegX calls it
			if !c.Equal(&want) {
				t.Fatalf("element %d step %d: aliased CyclotomicSquare != Square", i, step)
			}
		}
	}
}

// TestCyclotomicSquareOffSubgroup documents the precondition:
// Granger-Scott squaring uses the subgroup relation, so on a general
// Fp12 element it is NOT required to (and does not) return a^2.
// Callers must apply the easy part first.
func TestCyclotomicSquareOffSubgroup(t *testing.T) {
	agree := 0
	for i := 0; i < 8; i++ {
		a := randFp12(t)
		var fast, want Fp12
		fast.CyclotomicSquare(&a)
		want.Square(&a)
		if fast.Equal(&want) {
			agree++
		}
	}
	if agree == 8 {
		t.Fatal("CyclotomicSquare agreed with Square on 8 random non-subgroup elements; it is not using the subgroup relation")
	}
}

func benchCyclotomicElement() Fp12 {
	a := Fp12{C0: Fp6{Fp2{fpOne, fpRSquare}, Fp2{fpRSquare, fpOne}, Fp2One()}, C1: Fp6One()}
	return toCyclotomic(&a)
}

func BenchmarkFp12Square(b *testing.B) {
	x := benchCyclotomicElement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Square(&x)
	}
}

func BenchmarkFp12SquareDense(b *testing.B) {
	x := benchCyclotomicElement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.squareDense(&x)
	}
}

func BenchmarkFp12CyclotomicSquare(b *testing.B) {
	x := benchCyclotomicElement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.CyclotomicSquare(&x)
	}
}

func BenchmarkFp12MulBySparse035(b *testing.B) {
	x := benchCyclotomicElement()
	c0, c3, c5 := x.C0.C0, x.C1.C1, x.C1.C2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulBySparse035(&x, &c0, &c3, &c5)
	}
}
