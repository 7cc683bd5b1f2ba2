package bls

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/ff"
)

func TestSignVerify(t *testing.T) {
	sk, pk, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("sign me")
	sig := sk.Sign(msg)
	if !Verify(pk, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(pk, []byte("different message"), sig) {
		t.Fatal("signature verified for wrong message")
	}
	_, otherPk, _ := GenerateKey()
	if Verify(otherPk, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestSignDeterministic(t *testing.T) {
	sk, _, _ := GenerateKey()
	a := sk.Sign([]byte("m"))
	b := sk.Sign([]byte("m"))
	if !a.Equal(b) {
		t.Fatal("BLS signing must be deterministic")
	}
}

func TestProofOfPossession(t *testing.T) {
	sk, pk, _ := GenerateKey()
	pop := sk.ProvePossession()
	if !VerifyPossession(pk, pop) {
		t.Fatal("valid PoP rejected")
	}
	// A signature is not a PoP (different DST).
	pkb := pk.Bytes()
	sig := sk.Sign(pkb[:])
	if VerifyPossession(pk, sig) {
		t.Fatal("message signature accepted as PoP")
	}
	_, otherPk, _ := GenerateKey()
	if VerifyPossession(otherPk, pop) {
		t.Fatal("PoP verified for wrong key")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	sk, pk, _ := GenerateKey()
	enc := pk.Bytes()
	var pk2 PublicKey
	if err := pk2.SetBytes(enc[:]); err != nil {
		t.Fatal(err)
	}
	if !pk.Equal(&pk2) {
		t.Fatal("public key round trip failed")
	}
	sig := sk.Sign([]byte("x"))
	sigEnc := sig.Bytes()
	var sig2 Signature
	if err := sig2.SetBytes(sigEnc[:]); err != nil {
		t.Fatal(err)
	}
	if !Verify(pk, []byte("x"), &sig2) {
		t.Fatal("decoded signature invalid")
	}
}

func TestAggregateSameMessageRejected(t *testing.T) {
	sk1, pk1, _ := GenerateKey()
	sk2, pk2, _ := GenerateKey()
	msg := []byte("shared")
	agg, err := AggregateSignatures(sk1.Sign(msg), sk2.Sign(msg))
	if err != nil {
		t.Fatal(err)
	}
	if VerifyAggregate([]*PublicKey{pk1, pk2}, [][]byte{msg, msg}, agg) {
		t.Fatal("duplicate messages must be rejected")
	}
}

func TestAggregateDistinctMessages(t *testing.T) {
	sk1, pk1, _ := GenerateKey()
	sk2, pk2, _ := GenerateKey()
	m1, m2 := []byte("first"), []byte("second")
	agg, err := AggregateSignatures(sk1.Sign(m1), sk2.Sign(m2))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyAggregate([]*PublicKey{pk1, pk2}, [][]byte{m1, m2}, agg) {
		t.Fatal("valid aggregate rejected")
	}
	if VerifyAggregate([]*PublicKey{pk1, pk2}, [][]byte{m2, m1}, agg) {
		t.Fatal("swapped messages accepted")
	}
}

func TestAggregatePublicKeysSameMessage(t *testing.T) {
	// With PoP-checked keys, aggregate signature on one message verifies
	// under the aggregate public key.
	sk1, pk1, _ := GenerateKey()
	sk2, pk2, _ := GenerateKey()
	if !VerifyPossession(pk1, sk1.ProvePossession()) || !VerifyPossession(pk2, sk2.ProvePossession()) {
		t.Fatal("PoPs must verify")
	}
	msg := []byte("multi-sign")
	agg, _ := AggregateSignatures(sk1.Sign(msg), sk2.Sign(msg))
	aggPk, _ := AggregatePublicKeys(pk1, pk2)
	if !Verify(aggPk, msg, agg) {
		t.Fatal("aggregate under aggregate key rejected")
	}
}

func TestThresholdLifecycle(t *testing.T) {
	tk, shares, err := ThresholdKeyGen(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tk.N != 5 || tk.T != 3 || len(shares) != 5 {
		t.Fatal("wrong share count")
	}
	// Feldman verification accepts all real shares.
	for i := range shares {
		if !tk.VerifyShare(&shares[i]) {
			t.Fatalf("share %d rejected by Feldman check", shares[i].Index)
		}
	}
	// Tampered share rejected.
	bad := shares[0]
	var one ff.Fr
	one.SetOne()
	bad.Share.Add(&bad.Share, &one)
	if tk.VerifyShare(&bad) {
		t.Fatal("tampered share accepted")
	}

	msg := []byte("threshold message")
	// Any 3 of 5 shares combine to a signature valid under the group key.
	ss := []SignatureShare{
		shares[4].SignShare(msg),
		shares[1].SignShare(msg),
		shares[3].SignShare(msg),
	}
	for i := range ss {
		if !tk.VerifyShareSignature(msg, &ss[i]) {
			t.Fatalf("share signature %d rejected", ss[i].Index)
		}
	}
	sig, err := CombineShares(ss, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(&tk.GroupKey, msg, sig) {
		t.Fatal("combined threshold signature invalid")
	}

	// A different subset must produce the SAME signature (uniqueness).
	ss2 := []SignatureShare{
		shares[0].SignShare(msg),
		shares[1].SignShare(msg),
		shares[2].SignShare(msg),
	}
	sig2, err := CombineShares(ss2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Equal(sig2) {
		t.Fatal("different share subsets produced different signatures")
	}

	// Fewer than t shares must fail.
	if _, err := CombineShares(ss[:2], 3); err == nil {
		t.Fatal("combined with fewer than t shares")
	}
	// t-1 shares interpolated as if t were smaller give a wrong signature.
	wrong, err := CombineShares(ss[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(&tk.GroupKey, msg, wrong) {
		t.Fatal("2-of-5 interpolation produced the group signature")
	}
}

func TestThresholdSignHelper(t *testing.T) {
	tk, shares, _ := ThresholdKeyGen(2, 3)
	msg := []byte("helper")
	sig, err := ThresholdSign(tk, shares, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(&tk.GroupKey, msg, sig) {
		t.Fatal("helper signature invalid")
	}
	if _, err := ThresholdSign(tk, shares[:1], msg); err == nil {
		t.Fatal("helper signed with too few shares")
	}
}

func TestThresholdSignFallbackOnBadShare(t *testing.T) {
	// Corrupting one of the first t key shares makes the batched check
	// fail; the fallback must keep the valid already-signed share and
	// recover using a later key share.
	tk, shares, err := ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := ff.RandFrNonZero()
	if err != nil {
		t.Fatal(err)
	}
	shares[0].Share = bad
	msg := []byte("fallback path")
	sig, err := ThresholdSign(tk, shares, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(&tk.GroupKey, msg, sig) {
		t.Fatal("fallback signature invalid")
	}
	// Two bad shares of three leave only one valid: must fail.
	shares[1].Share = bad
	if _, err := ThresholdSign(tk, shares, msg); err == nil {
		t.Fatal("signed with fewer than t valid shares")
	}
}

func TestRecoverSecret(t *testing.T) {
	tk, shares, _ := ThresholdKeyGen(3, 5)
	rec, err := RecoverSecret(shares[1:4], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.PublicKey().Equal(&tk.GroupKey) {
		t.Fatal("recovered secret does not match group key")
	}
	// Recovery from t-1 shares yields a different key (no information).
	rec2, err := RecoverSecret(shares[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.PublicKey().Equal(&tk.GroupKey) {
		t.Fatal("2 shares recovered a 3-threshold secret")
	}
}

// TestCombine: t good shares give the group signature; a bad, an
// out-of-range or a repeated share is named and dropped while the good
// ones are kept; shares that are each good under share keys that do not
// match the group key are ErrShareKeysDisagree; and no failure returns
// a signature.
func TestCombine(t *testing.T) {
	tk, shares, err := ThresholdKeyGen(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("threshold batch message")
	var ss []SignatureShare
	for i := 0; i < 3; i++ {
		ss = append(ss, shares[i].SignShare(msg))
	}
	sig, kept, err := tk.Combine(msg, ss)
	if err != nil || kept != nil || !Verify(&tk.GroupKey, msg, sig) {
		t.Fatalf("honest shares: signature %v, kept %d, error %v", sig != nil, len(kept), err)
	}
	want, err := CombineShares(ss, 3)
	if err != nil || !sig.Equal(want) {
		t.Fatalf("Combine and CombineShares disagree (%v)", err)
	}
	// A share made by the wrong key share is named and dropped.
	bad := shares[3].SignShare(msg)
	bad.Index = shares[1].Index
	oor := ss[0]
	oor.Index = 99
	stale := ss[0]
	stale.Epoch = 7
	cases := []struct {
		name    string
		in      []SignatureShare
		keep    []uint32
		wantErr string
	}{
		{"mismatched share", []SignatureShare{ss[0], bad, ss[2]}, []uint32{1, 3}, "share index 2 does not verify"},
		{"out-of-range index", []SignatureShare{oor, ss[1], ss[2]}, []uint32{2, 3}, "share index 99 is outside"},
		{"another epoch", []SignatureShare{stale, ss[1], ss[2]}, []uint32{2, 3}, "from epoch 7"},
		{"repeated index", []SignatureShare{ss[0], ss[1], ss[1]}, []uint32{1, 2}, "duplicate share index 2"},
		{"wrong message", ss, []uint32{}, "share index 1 does not verify"},
	}
	for _, c := range cases {
		m := msg
		if c.name == "wrong message" {
			m = []byte("another message")
		}
		sig, kept, err := tk.Combine(m, c.in)
		if sig != nil || err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: signature %v, error %v, want one containing %q", c.name, sig != nil, err, c.wantErr)
		}
		got := []uint32{}
		for _, k := range kept {
			got = append(got, k.Index)
		}
		if !slices.Equal(got, c.keep) {
			t.Fatalf("%s: kept indexes %v, want %v", c.name, got, c.keep)
		}
	}
	if _, _, err := tk.Combine(msg, ss[:2]); err == nil {
		t.Fatal("combined fewer than t shares")
	}
	// Good shares under a group key they do not interpolate to.
	mismatched := *tk
	_, other, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	mismatched.GroupKey = *other
	sig, kept, err = mismatched.Combine(msg, ss)
	if sig != nil || !errors.Is(err, ErrShareKeysDisagree) || len(kept) != 3 {
		t.Fatalf("share keys that disagree with the group key: signature %v, kept %d, error %v", sig != nil, len(kept), err)
	}
}

func TestCombineSharesDuplicateIndex(t *testing.T) {
	tk, shares, _ := ThresholdKeyGen(2, 3)
	_ = tk
	msg := []byte("dup")
	a := shares[0].SignShare(msg)
	if _, err := CombineShares([]SignatureShare{a, a}, 2); err == nil {
		t.Fatal("duplicate share indexes accepted")
	}
}

func TestInvalidThresholdParams(t *testing.T) {
	if _, _, err := ThresholdKeyGen(0, 3); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, _, err := ThresholdKeyGen(4, 3); err == nil {
		t.Fatal("t>n accepted")
	}
}

func BenchmarkSignShare(b *testing.B) {
	_, shares, _ := ThresholdKeyGen(2, 3)
	msg := []byte("table 3 message: a 32-byte-ish m")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares[0].SignShare(msg)
	}
}

func BenchmarkSign(b *testing.B) {
	sk, _, _ := GenerateKey()
	msg := []byte("bench sign: a tree head's 40 B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	sk, pk, _ := GenerateKey()
	msg := []byte("bench verify")
	sig := sk.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(pk, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkCombineShares(b *testing.B) {
	tk, shares, _ := ThresholdKeyGen(3, 5)
	msg := []byte("bench combine")
	ss := []SignatureShare{
		shares[0].SignShare(msg),
		shares[1].SignShare(msg),
		shares[2].SignShare(msg),
	}
	_ = tk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CombineShares(ss, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombine is the client's work per threshold signature once t
// shares are in, for the demo deployment's 2-of-3 key: combine, then
// check once under the (memoized) group key.
func BenchmarkCombine(b *testing.B) {
	tk, shares, err := ThresholdKeyGen(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("bench combine")
	ss := []SignatureShare{shares[0].SignShare(msg), shares[1].SignShare(msg)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tk.Combine(msg, ss); err != nil {
			b.Fatal(err)
		}
	}
}
