package bls12381

import (
	"testing"

	"repro/internal/ff"
)

// Differential suite for the production pairing path (projective
// lockstep Miller loop, sparse line products, complex-method and
// Granger-Scott squarings) against the affine oracle of
// pairing_oracle_test.go. TestMillerLoopBatchMatchesProduct
// (fast_test.go) covers the multi-pair shapes; this file covers Pair,
// the final-exponentiation squarings on real Miller outputs, and a fuzz
// target over the scalar pair.

// oraclePair is e(P, Q) computed without any production fast path.
func oraclePair(p *G1Affine, q *G2Affine, br *oracleBranches) ff.Fp12 {
	f := millerLoopCounted(p, q, br)
	return finalExpPlainCubed(&f)
}

func TestPairingMatchesAffineOracle(t *testing.T) {
	g1, g2 := G1Generator(), G2Generator()
	var negG1 G1Affine
	negG1.Neg(&g1)
	var negG2 G2Affine
	negG2.Neg(&g2)
	infG1, infG2 := G1Affine{Infinity: true}, G2Affine{Infinity: true}

	type pair struct {
		name string
		p    G1Affine
		q    G2Affine
	}
	cases := []pair{
		{"generators", g1, g2},
		{"-G1", negG1, g2},
		{"-G2", g1, negG2},
		{"P at infinity", infG1, g2},
		{"Q at infinity", g1, infG2},
		{"both at infinity", infG1, infG2},
	}
	for i := 0; i < 6; i++ {
		cases = append(cases, pair{"random", randG1(t), randG2(t)})
	}
	forEachKernel(t, func(t *testing.T) {
		var br oracleBranches
		for _, c := range cases {
			got := Pair(&c.p, &c.q)
			want := oraclePair(&c.p, &c.q, &br)
			if !got.Equal(&want) {
				t.Fatalf("%s: Pair != affine oracle after final exponentiation", c.name)
			}
		}
		t.Logf("corpus reached %d doubling, %d addition, %d infinity-skip branches",
			br.doublings, br.additions, br.infinitySkips)
	})
}

// TestCyclotomicSquareOnEasyPartOutputs: on every element the hard part
// can see — easy-part images of real Miller values — Granger-Scott
// squaring is the ordinary square, and stays so along an x-length chain.
func TestCyclotomicSquareOnEasyPartOutputs(t *testing.T) {
	for i := 0; i < 4; i++ {
		p, q := randG1(t), randG2(t)
		f := MillerLoopBatch([]G1Affine{p}, []G2Affine{q})
		c := finalExpEasy(&f)
		for step := 0; step < 64; step++ {
			var fast, want ff.Fp12
			fast.CyclotomicSquare(&c)
			want.Mul(&c, &c)
			if !fast.Equal(&want) {
				t.Fatalf("input %d step %d: CyclotomicSquare != dense square on a cyclotomic element", i, step)
			}
			c = fast
		}
	}
}

// FuzzPairMatchesOracle: for any 64 bytes read as two scalars (a, b),
// the production e(aG1, bG2) equals the all-oracle value bit for bit and
// equals e(G1, G2)^(ab).
func FuzzPairMatchesOracle(f *testing.F) {
	f.Add(make([]byte, 64)) // a = b = 0: both points at infinity
	one := make([]byte, 64)
	one[31], one[63] = 1, 1
	f.Add(one)
	f.Add(append(ff.FrModulus().Bytes(), []byte("0123456789abcdef0123456789abcdef")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 64 {
			return
		}
		var a, b, ab ff.Fr
		a.SetBytesWide(data[:32])
		b.SetBytesWide(data[32:])
		ab.Mul(&a, &b)
		p, q := G1ScalarBaseMult(&a), G2ScalarBaseMult(&b)
		got := Pair(&p, &q)
		var br oracleBranches
		if want := oraclePair(&p, &q, &br); !got.Equal(&want) {
			t.Fatalf("Pair != oracle for %x", data)
		}
		g1, g2 := G1Generator(), G2Generator()
		base := Pair(&g1, &g2)
		var pow ff.Fp12
		fp12Exp(&pow, &base, ab.Big())
		if !got.Equal(&pow) {
			t.Fatalf("e(aG1, bG2) != e(G1, G2)^(ab) for %x", data)
		}
	})
}

// TestPreparedMatchesOnTheFly pins the two halves of the Miller loop:
// evaluating precomputed line tables (one table shared by every pair
// with the same Q, as a memo hands them out), preparing on the fly
// (MillerLoopBatch) and the per-pair affine oracle agree after the
// final exponentiation, with infinity on either side and a repeated Q.
func TestPreparedMatchesOnTheFly(t *testing.T) {
	var br oracleBranches
	for _, n := range []int{1, 2, 3, 5, 10, 17} {
		ps := make([]G1Affine, n)
		qs := make([]G2Affine, n)
		for i := 0; i < n; i++ {
			ps[i], qs[i] = randG1(t), randG2(t)
		}
		if n > 2 {
			ps[1] = G1Affine{Infinity: true}
			qs[n-1] = qs[0] // repeated Q, distinct P
		}
		if n > 3 {
			qs[2] = G2Affine{Infinity: true}
		}
		tables := make([]*G2Prepared, n)
		for i := range qs {
			tables[i] = PrepareG2(&qs[i])
			if want := millerSteps(); !qs[i].Infinity && len(tables[i].lines) != want {
				t.Fatalf("n=%d: table %d has %d lines, want %d", n, i, len(tables[i].lines), want)
			}
		}
		if n > 2 {
			tables[n-1] = tables[0] // one table serving two pairs
		}
		prepared := millerLoopPrepared(ps, tables)
		onTheFly := MillerLoopBatch(ps, qs)
		oracle := millerProductOracle(ps, qs, &br)
		got := FinalExponentiation(&prepared)
		fly := FinalExponentiation(&onTheFly)
		want := FinalExponentiation(&oracle)
		if !got.Equal(&want) || !fly.Equal(&want) {
			t.Fatalf("n=%d: prepared / on-the-fly / oracle disagree after final exponentiation (prepared ok %v, on-the-fly ok %v)",
				n, got.Equal(&want), fly.Equal(&want))
		}
	}
	if br.doublings == 0 || br.additions == 0 || br.infinitySkips == 0 {
		t.Fatal("corpus missed a Miller-loop branch")
	}
	if inf := PrepareG2(&G2Affine{Infinity: true}); len(inf.lines) != 0 {
		t.Fatal("the point at infinity got a non-empty line table")
	}
}

// TestPairingCheckPreparedMatchesPairingCheck: on valid and broken
// relations, across the worker-sharded sizes, the table-taking check
// answers exactly as the point-taking one.
func TestPairingCheckPreparedMatchesPairingCheck(t *testing.T) {
	g1 := G1Generator()
	var negG1 G1Affine
	negG1.Neg(&g1)
	for _, relations := range []int{1, 2, 5} {
		var ps []G1Affine
		var qs []G2Affine
		for i := 0; i < relations; i++ {
			k := randFr(t)
			kP, kQ := G1ScalarBaseMult(&k), G2ScalarBaseMult(&k)
			ps = append(ps, kP, negG1) // e(kP, Q) * e(-G1, kQ) == 1
			qs = append(qs, G2Generator(), kQ)
		}
		tables := make([]*G2Prepared, len(qs))
		for i := range qs {
			tables[i] = PrepareG2(&qs[i])
		}
		if !PairingCheck(ps, qs) || !PairingCheckPrepared(ps, tables) {
			t.Fatalf("%d relations: valid product rejected", relations)
		}
		ps[0] = g1
		if PairingCheck(ps, qs) || PairingCheckPrepared(ps, tables) {
			t.Fatalf("%d relations: broken product accepted", relations)
		}
		if PairingCheckPrepared(ps, tables[1:]) {
			t.Fatalf("%d relations: length mismatch accepted", relations)
		}
	}
	if !PairingCheckPrepared(nil, nil) {
		t.Fatal("empty product is 1 and must pass")
	}
}
