package bls12381

import (
	"math/big"
	"testing"

	"repro/internal/ff"
)

func TestGeneratorsOnCurve(t *testing.T) {
	g1 := G1Generator()
	if !g1.IsOnCurve() {
		t.Fatal("G1 generator not on curve")
	}
	g2 := G2Generator()
	if !g2.IsOnCurve() {
		t.Fatal("G2 generator not on twist")
	}
}

func TestGeneratorsHaveOrderR(t *testing.T) {
	r := ff.FrModulus()
	g1 := G1Generator()
	var j1 G1Jac
	j1.FromAffine(&g1)
	j1.ScalarMultBig(&j1, r)
	if !j1.IsInfinity() {
		t.Fatal("r * G1 != infinity")
	}
	g2 := G2Generator()
	var j2 G2Jac
	j2.FromAffine(&g2)
	j2.ScalarMultBig(&j2, r)
	if !j2.IsInfinity() {
		t.Fatal("r * G2 != infinity")
	}
}

func TestG1GroupLaws(t *testing.T) {
	g := G1Generator()
	var gj, p2, p3a, p3b, tmp G1Jac
	gj.FromAffine(&g)
	// 2G + G == 3G
	p2.Double(&gj)
	p3a.Add(&p2, &gj)
	p3b.ScalarMultBig(&gj, big.NewInt(3))
	if !p3a.Equal(&p3b) {
		t.Fatal("2G+G != 3G")
	}
	// G + (-G) == inf
	var neg G1Jac
	neg.Neg(&gj)
	tmp.Add(&gj, &neg)
	if !tmp.IsInfinity() {
		t.Fatal("G + (-G) != inf")
	}
	// inf + G == G
	var inf G1Jac
	inf.SetInfinity()
	tmp.Add(&inf, &gj)
	if !tmp.Equal(&gj) {
		t.Fatal("inf + G != G")
	}
	// commutativity with a random point
	k, _ := ff.RandFrNonZero()
	var q G1Jac
	q.ScalarMult(&gj, &k)
	var ab, ba G1Jac
	ab.Add(&gj, &q)
	ba.Add(&q, &gj)
	if !ab.Equal(&ba) {
		t.Fatal("addition not commutative")
	}
}

func TestG1ScalarMultLinear(t *testing.T) {
	g := G1Generator()
	var gj G1Jac
	gj.FromAffine(&g)
	a, _ := ff.RandFrNonZero()
	b, _ := ff.RandFrNonZero()
	var sum ff.Fr
	sum.Add(&a, &b)
	var pa, pb, pab, psum G1Jac
	pa.ScalarMult(&gj, &a)
	pb.ScalarMult(&gj, &b)
	pab.Add(&pa, &pb)
	psum.ScalarMult(&gj, &sum)
	if !pab.Equal(&psum) {
		t.Fatal("aG + bG != (a+b)G")
	}
}

func TestG2GroupLaws(t *testing.T) {
	g := G2Generator()
	var gj, p2, p3a, p3b G2Jac
	gj.FromAffine(&g)
	p2.Double(&gj)
	p3a.Add(&p2, &gj)
	p3b.ScalarMultBig(&gj, big.NewInt(3))
	if !p3a.Equal(&p3b) {
		t.Fatal("2G+G != 3G in G2")
	}
	a, _ := ff.RandFrNonZero()
	b, _ := ff.RandFrNonZero()
	var sum ff.Fr
	sum.Add(&a, &b)
	var pa, pb, pab, psum G2Jac
	pa.ScalarMult(&gj, &a)
	pb.ScalarMult(&gj, &b)
	pab.Add(&pa, &pb)
	psum.ScalarMult(&gj, &sum)
	if !pab.Equal(&psum) {
		t.Fatal("aG + bG != (a+b)G in G2")
	}
}

func TestHashToG1(t *testing.T) {
	p := HashToG1([]byte("hello distributed trust"), []byte("TEST-DST"))
	if p.Infinity {
		t.Fatal("hash produced infinity")
	}
	if !p.IsOnCurve() {
		t.Fatal("hashed point not on curve")
	}
	if !p.IsInSubgroup() {
		t.Fatal("hashed point not in subgroup")
	}
	// Determinism.
	q := HashToG1([]byte("hello distributed trust"), []byte("TEST-DST"))
	if !p.Equal(&q) {
		t.Fatal("hash not deterministic")
	}
	// Distinct messages and DSTs must map to distinct points.
	r1 := HashToG1([]byte("other message"), []byte("TEST-DST"))
	if p.Equal(&r1) {
		t.Fatal("distinct messages collided")
	}
	r2 := HashToG1([]byte("hello distributed trust"), []byte("OTHER-DST"))
	if p.Equal(&r2) {
		t.Fatal("distinct DSTs collided")
	}
}

// TestPairingBilinearity is the definitive end-to-end validation of the
// entire field/curve/pairing stack: e(aP, bQ) == e(P, Q)^(ab) == e(abP, Q).
func TestPairingBilinearity(t *testing.T) {
	g1 := G1Generator()
	g2 := G2Generator()

	e := Pair(&g1, &g2)
	if e.IsOne() {
		t.Fatal("e(G1, G2) is one; pairing degenerate")
	}
	// GT element must have order dividing r: e^r == 1.
	var er ff.Fp12
	fp12Exp(&er, &e, ff.FrModulus())
	if !er.IsOne() {
		t.Fatal("e(G1,G2)^r != 1")
	}

	a, _ := ff.RandFrNonZero()
	b, _ := ff.RandFrNonZero()
	aP := G1ScalarBaseMult(&a)
	bQ := G2ScalarBaseMult(&b)

	lhs := Pair(&aP, &bQ)
	var ab ff.Fr
	ab.Mul(&a, &b)
	var rhs ff.Fp12
	fp12Exp(&rhs, &e, ab.Big())
	if lhs != rhs {
		t.Fatal("e(aP, bQ) != e(P, Q)^(ab)")
	}

	abP := G1ScalarBaseMult(&ab)
	viaG1 := Pair(&abP, &g2)
	if viaG1 != rhs {
		t.Fatal("e(abP, Q) != e(P, Q)^(ab)")
	}
}

func TestPairingWithInfinity(t *testing.T) {
	g1 := G1Generator()
	g2 := G2Generator()
	inf1 := G1Affine{Infinity: true}
	inf2 := G2Affine{Infinity: true}
	if e := Pair(&inf1, &g2); !e.IsOne() {
		t.Fatal("e(inf, Q) != 1")
	}
	if e := Pair(&g1, &inf2); !e.IsOne() {
		t.Fatal("e(P, inf) != 1")
	}
}

func TestPairingCheck(t *testing.T) {
	// e(P, Q) * e(-P, Q) == 1
	g1 := G1Generator()
	g2 := G2Generator()
	var negG1 G1Affine
	negG1.Neg(&g1)
	if !PairingCheck([]G1Affine{g1, negG1}, []G2Affine{g2, g2}) {
		t.Fatal("e(P,Q)e(-P,Q) != 1")
	}
	if PairingCheck([]G1Affine{g1, g1}, []G2Affine{g2, g2}) {
		t.Fatal("e(P,Q)^2 == 1 unexpectedly")
	}
	if PairingCheck([]G1Affine{g1}, []G2Affine{g2, g2}) {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestG1CompressionRoundTrip(t *testing.T) {
	k, _ := ff.RandFrNonZero()
	p := G1ScalarBaseMult(&k)
	enc := p.Bytes()
	var q G1Affine
	if err := q.SetBytes(enc[:]); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(&q) {
		t.Fatal("G1 compression round trip failed")
	}
	// Infinity round trip.
	inf := G1Affine{Infinity: true}
	encInf := inf.Bytes()
	var r G1Affine
	if err := r.SetBytes(encInf[:]); err != nil {
		t.Fatal(err)
	}
	if !r.Infinity {
		t.Fatal("infinity round trip failed")
	}
	// Garbage rejected.
	bad := enc
	bad[0] &^= flagCompressed
	if err := r.SetBytes(bad[:]); err == nil {
		t.Fatal("uncompressed flag accepted")
	}
	if err := r.SetBytes(enc[:20]); err == nil {
		t.Fatal("short encoding accepted")
	}
}

func TestG2CompressionRoundTrip(t *testing.T) {
	k, _ := ff.RandFrNonZero()
	p := G2ScalarBaseMult(&k)
	enc := p.Bytes()
	var q G2Affine
	if err := q.SetBytes(enc[:]); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(&q) {
		t.Fatal("G2 compression round trip failed")
	}
	inf := G2Affine{Infinity: true}
	encInf := inf.Bytes()
	var r G2Affine
	if err := r.SetBytes(encInf[:]); err != nil {
		t.Fatal(err)
	}
	if !r.Infinity {
		t.Fatal("G2 infinity round trip failed")
	}
}

func TestG1RejectsNonSubgroupEncoding(t *testing.T) {
	// Find an x whose curve point is NOT in the subgroup (cofactor > 1, so
	// most random curve points are outside it), encode, and expect reject.
	var x ff.Fp
	x.SetUint64(1)
	var one ff.Fp
	one.SetOne()
	for i := 0; i < 1000; i++ {
		var y2, y ff.Fp
		y2.Square(&x)
		y2.Mul(&y2, &x)
		y2.Add(&y2, &g1B)
		if _, ok := y.Sqrt(&y2); ok {
			cand := G1Affine{X: x, Y: y}
			if !cand.IsInSubgroup() {
				enc := cand.Bytes()
				var p G1Affine
				if err := p.SetBytes(enc[:]); err == nil {
					t.Fatal("non-subgroup point accepted")
				}
				return
			}
		}
		x.Add(&x, &one)
	}
	t.Skip("no non-subgroup point found in range (unexpected)")
}

func BenchmarkHashToG1(b *testing.B) {
	msg := []byte("benchmark message for hashing")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashToG1(msg, []byte("BENCH-DST"))
	}
}

func BenchmarkPairing(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(&g1, &g2)
	}
}

// BenchmarkMillerLoop is the production loop on one pair;
// BenchmarkMillerLoopAffineOracle is the retained affine reference.
func BenchmarkMillerLoop(b *testing.B) {
	ps := []G1Affine{G1Generator()}
	qs := []G2Affine{G2Generator()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MillerLoopBatch(ps, qs)
	}
}

func BenchmarkMillerLoopAffineOracle(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MillerLoop(&g1, &g2)
	}
}

// G1ClearCofactor multiplies p by the G1 cofactor, mapping any curve
// point into the order-r subgroup: the [h]P reference
// g1ClearCofactorFast is checked against.
func G1ClearCofactor(p *G1Affine) G1Affine {
	var j, out G1Jac
	j.FromAffine(p)
	out.ScalarMultBig(&j, g1Cofactor)
	return out.Affine()
}

// ScalarMultBig sets p = k*q for a non-negative big integer k and returns p.
func (p *G2Jac) ScalarMultBig(q *G2Jac, k *big.Int) *G2Jac {
	if k.Sign() < 0 {
		var negQ G2Jac
		negQ.Neg(q)
		return p.ScalarMultBig(&negQ, new(big.Int).Neg(k))
	}
	var acc G2Jac
	acc.SetInfinity()
	base := *q
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if k.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return p.Set(&acc)
}

// ScalarMult sets p = k*q by the width-5 wNAF path, for tests that pin
// it against ScalarMultBig.
func (p *G2Jac) ScalarMult(q *G2Jac, k *ff.Fr) *G2Jac {
	limbs := k.Canonical()
	return g2WnafMult(p, q, limbs[:])
}

// Equal reports whether p and q represent the same point.
func (p *G2Jac) Equal(q *G2Jac) bool {
	pa, qa := p.Affine(), q.Affine()
	return pa.Equal(&qa)
}

// PairingCheck reports whether prod e(Pi, Qi) == 1, preparing each Q on
// the fly: PairingCheckPrepared without the line-table memo, which tests
// and the lockstep benchmark use.
func PairingCheck(ps []G1Affine, qs []G2Affine) bool {
	if len(ps) != len(qs) {
		return false
	}
	return pairingCheck(len(ps), func(lo, hi int) ff.Fp12 {
		return MillerLoopBatch(ps[lo:hi], qs[lo:hi])
	})
}

// g1Cofactor is h1 = (x-1)^2 / 3.
var g1Cofactor, _ = new(big.Int).SetString("396c8c005555e1568c00aaab0000aaab", 16)

// fp12Exp sets z = a^e for non-negative e by square-and-multiply: GT
// exponentiation, which the pairing tests compare against.
func fp12Exp(z, a *ff.Fp12, e *big.Int) {
	out := ff.Fp12One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		out.Square(&out)
		if e.Bit(i) == 1 {
			out.Mul(&out, a)
		}
	}
	*z = out
}

// TestAffineBlindedMatchesAffine: the blinded normalization the signing
// paths use gives the same point as Affine, for random Jacobian points
// (Z != 1) and for infinity.
func TestAffineBlindedMatchesAffine(t *testing.T) {
	g := G1Generator()
	var gj G1Jac
	gj.FromAffine(&g)
	points := []G1Jac{{}}
	points[0].SetInfinity()
	for i := 0; i < 32; i++ {
		k, err := ff.RandFrNonZero()
		if err != nil {
			t.Fatal(err)
		}
		var p G1Jac
		p.ScalarMult(&gj, &k)
		points = append(points, p)
	}
	for i := range points {
		got, err := points[i].AffineBlinded()
		if err != nil {
			t.Fatal(err)
		}
		if want := points[i].Affine(); !got.Equal(&want) {
			t.Fatalf("point %d: blinded %v, Affine %v", i, got, want)
		}
	}
}
