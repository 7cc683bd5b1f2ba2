package ff

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// randBig produces a random canonical value below mod using testing/quick's
// generator-provided uint64s for reproducibility inside property tests.
func fpFromWords(words [6]uint64) (Fp, *big.Int) {
	v := limbsToBig(words[:])
	v.Mod(v, fpP)
	var z Fp
	z.SetBig(v)
	return z, v
}

func frFromWords(words [4]uint64) (Fr, *big.Int) {
	v := limbsToBig(words[:])
	v.Mod(v, frR)
	var z Fr
	z.SetBig(v)
	return z, v
}

func TestFpMontgomeryConstants(t *testing.T) {
	// one must round-trip: Big(one) == 1.
	one := FpOne()
	if one.Big().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("FpOne canonical value = %s, want 1", one.Big())
	}
	// inv * p[0] == -1 mod 2^64
	if fpInv*fpModulus[0] != ^uint64(0) {
		t.Fatalf("fpInv incorrect: inv*p0 = %#x", fpInv*fpModulus[0])
	}
	if frInv*frModulus[0] != ^uint64(0) {
		t.Fatalf("frInv incorrect")
	}
	// p must be the BLS12-381 prime (spot check against hex literal).
	wantP, _ := new(big.Int).SetString("1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab", 16)
	if fpP.Cmp(wantP) != 0 {
		t.Fatalf("fp modulus mismatch")
	}
	wantR, _ := new(big.Int).SetString("73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001", 16)
	if frR.Cmp(wantR) != 0 {
		t.Fatalf("fr modulus mismatch")
	}
}

func TestFpMulMatchesBig(t *testing.T) {
	f := func(aw, bw [6]uint64) bool {
		a, av := fpFromWords(aw)
		b, bv := fpFromWords(bw)
		var z Fp
		z.Mul(&a, &b)
		want := new(big.Int).Mul(av, bv)
		want.Mod(want, fpP)
		return z.Big().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFpAddSubNegMatchBig(t *testing.T) {
	f := func(aw, bw [6]uint64) bool {
		a, av := fpFromWords(aw)
		b, bv := fpFromWords(bw)
		var sum, diff, neg Fp
		sum.Add(&a, &b)
		diff.Sub(&a, &b)
		neg.Neg(&a)
		wantSum := new(big.Int).Add(av, bv)
		wantSum.Mod(wantSum, fpP)
		wantDiff := new(big.Int).Sub(av, bv)
		wantDiff.Mod(wantDiff, fpP)
		wantNeg := new(big.Int).Neg(av)
		wantNeg.Mod(wantNeg, fpP)
		return sum.Big().Cmp(wantSum) == 0 &&
			diff.Big().Cmp(wantDiff) == 0 &&
			neg.Big().Cmp(wantNeg) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFpAddSubNegBoundaries drives the branch-free Add/Sub/Neg over the
// raw residues where the masked selection flips — sums landing on p-1,
// p and p+1, differences landing on 0 and -1, negation of 0 — in every
// aliasing pattern the tower uses (z = a, z = b, a = b).
func TestFpAddSubNegBoundaries(t *testing.T) {
	raw := func(v *big.Int) Fp { return bigToFpRaw(v) }
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(fpP, one)
	half := new(big.Int).Rsh(fpP, 1) // (p-1)/2
	halfUp := new(big.Int).Add(half, one)
	vals := []*big.Int{
		big.NewInt(0), one, big.NewInt(2), half, halfUp, pm1,
		new(big.Int).Sub(pm1, one), limbsToBig(fpOne[:]), limbsToBig(fpRSquare[:]),
		new(big.Int).SetUint64(^uint64(0)), new(big.Int).Lsh(one, 320),
	}
	check := func(op string, got *Fp, want *big.Int) {
		t.Helper()
		want.Mod(want, fpP)
		if limbsToBig(got[:]).Cmp(want) != 0 {
			t.Fatalf("%s: got %x want %x", op, limbsToBig(got[:]), want)
		}
	}
	for _, av := range vals {
		a := raw(av)
		var neg Fp
		check("neg", neg.Neg(&a), new(big.Int).Neg(av))
		neg = a
		check("neg aliased", neg.Neg(&neg), new(big.Int).Neg(av))
		var dbl Fp
		check("double", dbl.Add(&a, &a), new(big.Int).Lsh(av, 1))
		check("a-a", dbl.Sub(&a, &a), big.NewInt(0))
		for _, bv := range vals {
			b := raw(bv)
			var z Fp
			check("add", z.Add(&a, &b), new(big.Int).Add(av, bv))
			check("sub", z.Sub(&a, &b), new(big.Int).Sub(av, bv))
			z = a
			check("add z=a", z.Add(&z, &b), new(big.Int).Add(av, bv))
			z = b
			check("add z=b", z.Add(&a, &z), new(big.Int).Add(av, bv))
			z = a
			check("sub z=a", z.Sub(&z, &b), new(big.Int).Sub(av, bv))
			z = b
			check("sub z=b", z.Sub(&a, &z), new(big.Int).Sub(av, bv))
		}
	}
}

var (
	// fpInvExp = p-2, the Fermat inversion exponent.
	fpInvExp = new(big.Int).Sub(fpP, big.NewInt(2))
	// fpLegendreExp = (p-1)/2, Euler's criterion.
	fpLegendreExp = new(big.Int).Rsh(new(big.Int).Sub(fpP, big.NewInt(1)), 1)
)

// fpInverseFermat is the inversion Fp.Inverse replaced, a^(p-2) over
// Exp's bit loop: the oracle the binary GCD is checked against.
func fpInverseFermat(z, a *Fp) {
	if a.IsZero() {
		z.SetZero()
		return
	}
	z.Exp(a, fpInvExp)
}

// fpLadderCases is the inputs the fixed-exponent paths are pinned on:
// the boundary residues (0, 1, p-1, p-2, R, R^2, one-limb and near-p
// patterns) as limbs and as canonical values, every power of two
// below p both ways, and n random residues.
func fpLadderCases(n int) []Fp {
	var out []Fp
	for _, raw := range fpBoundaryResidues() {
		var canon Fp
		canon.SetBig(limbsToBig(raw[:]))
		out = append(out, raw, canon)
	}
	for i := 0; i < 381; i++ {
		var raw, canon Fp
		raw[i/64] = 1 << (i % 64)
		canon.SetBig(new(big.Int).Lsh(big.NewInt(1), uint(i)))
		out = append(out, raw, canon)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		var w [6]uint64
		for j := range w {
			w[j] = rng.Uint64()
		}
		a, _ := fpFromWords(w)
		out = append(out, a)
	}
	return out
}

func TestFpInverse(t *testing.T) {
	f := func(aw [6]uint64) bool {
		a, av := fpFromWords(aw)
		if av.Sign() == 0 {
			return true
		}
		var inv, prod Fp
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		return prod.IsOne()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	var z Fp
	z.Inverse(&z)
	if !z.IsZero() {
		t.Fatal("Inverse(0) should be 0")
	}
	for _, a := range fpLadderCases(200) {
		var got, want Fp
		got.Inverse(&a)
		fpInverseFermat(&want, &a)
		if got != want {
			t.Fatalf("Inverse(%s) = %s, Fermat ladder %s", a.String(), got.String(), want.String())
		}
		// In place, as Fp12's and the batch normalizations call it.
		got = a
		got.Inverse(&got)
		if got != want {
			t.Fatalf("Inverse in place of %s = %s, want %s", a.String(), got.String(), want.String())
		}
	}
}

// TestFpSqrtAndResidueMatchLadder pins the windowed Sqrt to Exp's bit
// loop over the same exponent, and the binary Legendre symbol (Sqrt's
// early refusal, IsQuadraticResidue) to Euler's criterion.
func TestFpSqrtAndResidueMatchLadder(t *testing.T) {
	minusOne := FpOne()
	minusOne.Neg(&minusOne)
	for _, a := range fpLadderCases(200) {
		var want, got Fp
		want.Exp(&a, fpSqrtExp)
		var chk Fp
		chk.Square(&want)
		wantOK := chk.Equal(&a)
		_, ok := got.Sqrt(&a)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("Sqrt(%s) = %s %v, ladder %s %v", a.String(), got.String(), ok, want.String(), wantOK)
		}
		var l Fp
		l.Exp(&a, fpLegendreExp)
		var sym int
		switch {
		case a.IsZero():
		case l.IsOne():
			sym = 1
		case l.Equal(&minusOne):
			sym = -1
		default:
			t.Fatalf("Euler's criterion of %s = %s", a.String(), l.String())
		}
		if got := a.legendre(); got != sym {
			t.Fatalf("legendre(%s) = %d, Euler's criterion %d", a.String(), got, sym)
		}
		if qr := a.IsQuadraticResidue(); qr != (sym >= 0) {
			t.Fatalf("IsQuadraticResidue(%s) = %v, Euler's criterion %d", a.String(), qr, sym)
		}
		if a.IsQuadraticResidue() != wantOK {
			t.Fatalf("IsQuadraticResidue(%s) = %v but Sqrt found a root: %v", a.String(), !wantOK, wantOK)
		}
	}
}

// TestFpInverseAllocs: the inversion, the square root (of a square, so
// past the Legendre symbol into the exponentiation) and the residue
// test allocate nothing.
func TestFpInverseAllocs(t *testing.T) {
	a, _ := RandFp()
	a.Square(&a)
	var z Fp
	if n := testing.AllocsPerRun(100, func() {
		z.Inverse(&a)
		z.Sqrt(&a)
		_ = a.IsQuadraticResidue()
	}); n != 0 {
		t.Fatalf("Inverse, Sqrt and IsQuadraticResidue allocate %v times per run, want 0", n)
	}
}

// FuzzFpInverse cross-checks Inverse against the Fermat ladder, and
// a * a^-1 = 1, on any 48-byte value reduced mod p and taken as limbs.
func FuzzFpInverse(f *testing.F) {
	for _, b := range fpBoundaryResidues() {
		seed := make([]byte, 48)
		limbsToBig(b[:]).FillBytes(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 48 {
			return
		}
		a := bigToFpRaw(new(big.Int).Mod(new(big.Int).SetBytes(data), fpP))
		var got, want, prod Fp
		got.Inverse(&a)
		fpInverseFermat(&want, &a)
		if got != want {
			t.Fatalf("Inverse(%x) = %s, Fermat ladder %s", data, got.String(), want.String())
		}
		if prod.Mul(&a, &got); !a.IsZero() && !prod.IsOne() {
			t.Fatalf("a * Inverse(a) = %s for %x", prod.String(), data)
		}
	})
}

func TestFpSqrt(t *testing.T) {
	f := func(aw [6]uint64) bool {
		a, _ := fpFromWords(aw)
		var sq Fp
		sq.Square(&a)
		var root Fp
		_, ok := root.Sqrt(&sq)
		if !ok {
			return false
		}
		var chk Fp
		chk.Square(&root)
		return chk.Equal(&sq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFpBytesRoundTrip(t *testing.T) {
	a, err := RandFp()
	if err != nil {
		t.Fatal(err)
	}
	enc := a.Bytes()
	var b Fp
	if err := b.SetBytes(enc[:]); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(&b) {
		t.Fatal("Fp bytes round trip failed")
	}
	// Non-canonical must be rejected.
	pBytes := make([]byte, FpBytes)
	fpP.FillBytes(pBytes)
	if err := b.SetBytes(pBytes); err == nil {
		t.Fatal("SetBytes accepted p itself")
	}
	if err := b.SetBytes(enc[:47]); err == nil {
		t.Fatal("SetBytes accepted short input")
	}
}

// TestFpSetBytesWideMatchesBig pins the allocation-free wide reduction
// against math/big on every length through two full chunks past 96
// bytes, on random bytes and on all-ones (every chunk at its maximum).
func TestFpSetBytesWideMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 100; n++ {
		ones := bytes.Repeat([]byte{0xff}, n)
		random := make([]byte, n)
		rng.Read(random)
		for _, in := range [][]byte{ones, random} {
			var got, want Fp
			got.SetBytesWide(in)
			want.SetBig(new(big.Int).SetBytes(in))
			if !got.Equal(&want) {
				t.Fatalf("len %d: SetBytesWide(%x) != SetBig", n, in)
			}
		}
	}
	in := make([]byte, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		var z Fp
		z.SetBytesWide(in)
	}); allocs != 0 {
		t.Fatalf("SetBytesWide allocates %v times per call", allocs)
	}
}

func TestFpCmpAndSign(t *testing.T) {
	var two, three Fp
	two.SetUint64(2)
	three.SetUint64(3)
	if two.Cmp(&three) != -1 || three.Cmp(&two) != 1 || two.Cmp(&two) != 0 {
		t.Fatal("Cmp ordering wrong")
	}
	if two.Sign() != 0 || three.Sign() != 1 {
		t.Fatal("Sign parity wrong")
	}
}

func TestFrMulMatchesBig(t *testing.T) {
	f := func(aw, bw [4]uint64) bool {
		a, av := frFromWords(aw)
		b, bv := frFromWords(bw)
		var z Fr
		z.Mul(&a, &b)
		want := new(big.Int).Mul(av, bv)
		want.Mod(want, frR)
		return z.Big().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrAddSubInverse(t *testing.T) {
	f := func(aw, bw [4]uint64) bool {
		a, av := frFromWords(aw)
		b, bv := frFromWords(bw)
		var sum, diff Fr
		sum.Add(&a, &b)
		diff.Sub(&a, &b)
		wantSum := new(big.Int).Add(av, bv)
		wantSum.Mod(wantSum, frR)
		wantDiff := new(big.Int).Sub(av, bv)
		wantDiff.Mod(wantDiff, frR)
		if sum.Big().Cmp(wantSum) != 0 || diff.Big().Cmp(wantDiff) != 0 {
			return false
		}
		if av.Sign() != 0 {
			var inv, prod Fr
			inv.Inverse(&a)
			prod.Mul(&a, &inv)
			if !prod.IsOne() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFrBytesRoundTrip(t *testing.T) {
	a, err := RandFrNonZero()
	if err != nil {
		t.Fatal(err)
	}
	enc := a.Bytes()
	var b Fr
	if err := b.SetBytes(enc[:]); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(&b) {
		t.Fatal("Fr bytes round trip failed")
	}
	var c Fr
	c.SetBytesWide(bytes.Repeat([]byte{0xff}, 64))
	if c.IsZero() {
		t.Fatal("SetBytesWide produced zero for nonzero input")
	}
}

func TestFrSetBigNegative(t *testing.T) {
	var z Fr
	z.SetBig(big.NewInt(-1))
	want := new(big.Int).Sub(frR, big.NewInt(1))
	if z.Big().Cmp(want) != 0 {
		t.Fatalf("SetBig(-1) = %s, want r-1", z.Big())
	}
}

// TestFpExpMatchesBig covers exponents 0 and 1, long runs of zeros and
// ones, and the fixed exponents Inverse, Sqrt and the Legendre symbol
// use.
func TestFpExpMatchesBig(t *testing.T) {
	a, av := fpFromWords([6]uint64{7, 0, 0, 0, 0, 0})
	r, rv := fpFromWords([6]uint64{0x0123456789abcdef, 0xfedcba9876543210, 3, 5, 7, 11})
	exps := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(31), big.NewInt(32),
		big.NewInt(65537), new(big.Int).Lsh(big.NewInt(0x3ff), 40),
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 200), big.NewInt(0x2d)),
		fpInvExp, fpSqrtExp, fpLegendreExp,
	}
	for _, e := range exps {
		for _, base := range []struct {
			x  Fp
			xv *big.Int
		}{{a, av}, {r, rv}} {
			var z Fp
			z.Exp(&base.x, e)
			want := new(big.Int).Exp(base.xv, e, fpP)
			if z.Big().Cmp(want) != 0 {
				t.Fatalf("Exp(%s, %s) mismatch vs big.Int", base.xv, e)
			}
		}
	}
}

func BenchmarkFpMul(b *testing.B) {
	x, _ := RandFp()
	y, _ := RandFp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

func BenchmarkFpInverse(b *testing.B) {
	x, _ := RandFp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Inverse(&x)
	}
}

// BenchmarkFpInverseFermat is the Fermat ladder Inverse replaced, on
// BenchmarkFpInverse's shape; CI's curve-perf job gates the binary GCD
// at >= 3x it.
func BenchmarkFpInverseFermat(b *testing.B) {
	x, _ := RandFp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpInverseFermat(&x, &x)
	}
}

// BenchmarkFpSqrt is one square root of a residue: the Legendre symbol,
// then the windowed exponentiation.
func BenchmarkFpSqrt(b *testing.B) {
	x, _ := RandFp()
	x.Square(&x)
	var z Fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sqrt(&x)
	}
}

func BenchmarkFrMul(b *testing.B) {
	x, _ := RandFr()
	y, _ := RandFr()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

// BenchmarkFpMulGo is the two-row Go kernel, Fp.Mul's fallback, on
// BenchmarkFpMul's shape; CI's curve-perf job gates the assembly
// kernel at >= 1.3x it.
func BenchmarkFpMulGo(b *testing.B) {
	x, _ := RandFp()
	y, _ := RandFp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpMontMul(&x, &x, &y)
	}
}

// BenchmarkFpMulGeneric is the retained CIOS loop on BenchmarkFpMul's
// shape; CI's curve-perf job gates the production kernel at >= 1.5x it.
func BenchmarkFpMulGeneric(b *testing.B) {
	x, _ := RandFp()
	y, _ := RandFp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpMontMulGeneric(&x, &x, &y)
	}
}
