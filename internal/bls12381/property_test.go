package bls12381

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/ff"
)

// scalarFromWords builds a reduced scalar from generator-provided words.
func scalarFromWords(w [4]uint64) ff.Fr {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(w[i]))
	}
	var s ff.Fr
	s.SetBig(v)
	return s
}

func TestG1CompressionRoundTripProperty(t *testing.T) {
	f := func(w [4]uint64) bool {
		k := scalarFromWords(w)
		p := G1ScalarBaseMult(&k)
		enc := p.Bytes()
		var q G1Affine
		if err := q.SetBytes(enc[:]); err != nil {
			return false
		}
		return p.Equal(&q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestG2CompressionRoundTripProperty(t *testing.T) {
	f := func(w [4]uint64) bool {
		k := scalarFromWords(w)
		p := G2ScalarBaseMult(&k)
		enc := p.Bytes()
		var q G2Affine
		if err := q.SetBytes(enc[:]); err != nil {
			return false
		}
		return p.Equal(&q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestG1ScalarMulDistributesOverPoints(t *testing.T) {
	// k(P + Q) == kP + kQ for random P, Q.
	f := func(a, b, c [4]uint64) bool {
		ka, kb, k := scalarFromWords(a), scalarFromWords(b), scalarFromWords(c)
		P := G1ScalarBaseMult(&ka)
		Q := G1ScalarBaseMult(&kb)
		var pj, qj, sum, lhs, kp, kq, rhs G1Jac
		pj.FromAffine(&P)
		qj.FromAffine(&Q)
		sum.Add(&pj, &qj)
		lhs.ScalarMult(&sum, &k)
		kp.ScalarMult(&pj, &k)
		kq.ScalarMult(&qj, &k)
		rhs.Add(&kp, &kq)
		return lhs.Equal(&rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestG1ScalarMulModOrder(t *testing.T) {
	// (k mod r)P == kP for k up to 2^256 (reduction happens in Fr).
	k, _ := ff.RandFrNonZero()
	kBig := k.Big()
	kPlusR := new(big.Int).Add(kBig, ff.FrModulus())
	g := G1Generator()
	var gj, a, b G1Jac
	gj.FromAffine(&g)
	a.ScalarMultBig(&gj, kBig)
	b.ScalarMultBig(&gj, kPlusR)
	if !a.Equal(&b) {
		t.Fatal("scalar multiplication not periodic in r")
	}
}

func TestG1NegativeScalar(t *testing.T) {
	g := G1Generator()
	var gj, a, b G1Jac
	gj.FromAffine(&g)
	a.ScalarMultBig(&gj, big.NewInt(-5))
	b.ScalarMultBig(&gj, big.NewInt(5))
	b.Neg(&b)
	if !a.Equal(&b) {
		t.Fatal("(-5)G != -(5G)")
	}
}

func TestPairingLinearInBothArguments(t *testing.T) {
	// e(P, Q1 + Q2) == e(P, Q1) * e(P, Q2)
	a, _ := ff.RandFrNonZero()
	b, _ := ff.RandFrNonZero()
	g1 := G1Generator()
	Q1 := G2ScalarBaseMult(&a)
	Q2 := G2ScalarBaseMult(&b)
	var q1j, q2j, sumj G2Jac
	q1j.FromAffine(&Q1)
	q2j.FromAffine(&Q2)
	sumj.Add(&q1j, &q2j)
	sum := sumj.Affine()

	lhs := Pair(&g1, &sum)
	e1 := Pair(&g1, &Q1)
	e2 := Pair(&g1, &Q2)
	var rhs ff.Fp12
	rhs.Mul(&e1, &e2)
	if lhs != rhs {
		t.Fatal("pairing not linear in G2 argument")
	}
}

func TestHashToG1AvalancheProperty(t *testing.T) {
	// Single-bit message changes must move the point (trivially true for
	// a good hash; guards against accidental truncation of the input).
	f := func(msg []byte, bit uint8) bool {
		if len(msg) == 0 {
			return true
		}
		p := HashToG1(msg, []byte("prop"))
		flipped := append([]byte{}, msg...)
		flipped[int(bit)%len(flipped)] ^= 1 << (bit % 8)
		q := HashToG1(flipped, []byte("prop"))
		return !p.Equal(&q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
