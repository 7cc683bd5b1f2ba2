package bls

import (
	"fmt"
	"testing"
)

// batchFixture makes n key pairs and signatures over distinct messages.
func batchFixture(t testing.TB, n int) ([]*PublicKey, [][]byte, []*Signature) {
	t.Helper()
	pks := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := 0; i < n; i++ {
		sk, pk, err := GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		pks[i] = pk
		msgs[i] = []byte(fmt.Sprintf("batch message %d", i))
		sigs[i] = sk.Sign(msgs[i])
	}
	return pks, msgs, sigs
}

func TestVerifyBatchHonest(t *testing.T) {
	pks, msgs, sigs := batchFixture(t, 8)
	if !VerifyBatch(pks, msgs, sigs) {
		t.Fatal("honest batch rejected")
	}
	// Single-element batch takes the plain-Verify path.
	if !VerifyBatch(pks[:1], msgs[:1], sigs[:1]) {
		t.Fatal("singleton batch rejected")
	}
}

func TestVerifyBatchOneKeyManyMessages(t *testing.T) {
	// The monitor/STH workload: one signer, many signed statements.
	sk, pk, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	pks := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := 0; i < n; i++ {
		pks[i] = pk
		msgs[i] = []byte(fmt.Sprintf("tree head %d", i))
		sigs[i] = sk.Sign(msgs[i])
	}
	if !VerifyBatch(pks, msgs, sigs) {
		t.Fatal("same-key batch rejected")
	}
	sigs[n-1] = sk.Sign([]byte("a different head"))
	if VerifyBatch(pks, msgs, sigs) {
		t.Fatal("batch with one wrong-message signature accepted")
	}
}

// TestVerifyBatchRejectsForgery is the ISSUE 1 requirement: a batch in
// which exactly one signature is forged must fail, at every position.
func TestVerifyBatchRejectsForgery(t *testing.T) {
	pks, msgs, sigs := batchFixture(t, 6)
	forger, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < len(sigs); at++ {
		tampered := make([]*Signature, len(sigs))
		copy(tampered, sigs)
		tampered[at] = forger.Sign(msgs[at]) // wrong key, right message
		if VerifyBatch(pks, msgs, tampered) {
			t.Fatalf("batch with forged signature at %d accepted", at)
		}
	}
}

func TestVerifyBatchShapeErrors(t *testing.T) {
	pks, msgs, sigs := batchFixture(t, 3)
	if VerifyBatch(nil, nil, nil) {
		t.Fatal("empty batch accepted")
	}
	if VerifyBatch(pks[:2], msgs, sigs) {
		t.Fatal("mismatched lengths accepted")
	}
	if VerifyBatch(pks, msgs, []*Signature{sigs[0], nil, sigs[2]}) {
		t.Fatal("nil signature accepted")
	}
}

func TestVerifyAggregateSameMsg(t *testing.T) {
	msg := []byte("the one message")
	var pks []*PublicKey
	var sigs []*Signature
	for i := 0; i < 5; i++ {
		sk, pk, err := GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyPossession(pk, sk.ProvePossession()) {
			t.Fatal("possession proof failed")
		}
		pks = append(pks, pk)
		sigs = append(sigs, sk.Sign(msg))
	}
	agg, err := AggregateSignatures(sigs...)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyAggregateSameMsg(pks, msg, agg) {
		t.Fatal("honest same-message aggregate rejected")
	}
	if VerifyAggregateSameMsg(pks, []byte("another message"), agg) {
		t.Fatal("aggregate accepted for wrong message")
	}
	if VerifyAggregateSameMsg(pks[:4], msg, agg) {
		t.Fatal("aggregate accepted with missing signer")
	}
}
