package main

import (
	"fmt"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/serve/loadtest"
)

// selfTest proves the client-side checks are not vacuous: it captures an
// inclusion proof, a signed head, a consistency proof and a threshold
// signature from an in-process log, confirms each verifies through the
// functions the workloads use, flips one byte in each, and requires every
// verification to fail. It runs before anything is measured.
func selfTest() error {
	const leaves, old, index = 64, 40, 17
	fx, err := loadtest.NewFixture(leaves)
	if err != nil {
		return err
	}
	defer fx.Close()
	head, err := fx.Mon.TreeHeadBLS()
	if err != nil {
		return err
	}
	pk := fx.Mon.BLSPublicKey()
	payload, proof, err := fx.Mon.ProveInclusionAt(index, leaves)
	if err != nil {
		return err
	}
	cons, err := fx.Mon.ProveConsistencyBetween(old, leaves)
	if err != nil {
		return err
	}
	oldRoot, err := cons.OldSuperRoot()
	if err != nil {
		return err
	}
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		return err
	}
	msg := []byte("bench self-test")
	sig, err := bls.ThresholdSign(tk, shares[:2], msg)
	if err != nil {
		return err
	}
	sigBytes := sig.Bytes()
	verifySig := func() bool {
		var s bls.Signature
		return s.SetBytes(sigBytes[:]) == nil && bls.Verify(&tk.GroupKey, msg, &s)
	}

	for _, c := range []struct {
		what   string
		verify func() bool
		flip   *byte // one byte of the captured value
	}{
		{"inclusion proof", func() bool {
			return checkProof(payload, proof, index, leaves, head.Head, payload) == nil
		}, &proof.Inner[0][0]},
		{"consistency proof", func() bool {
			return aolog.VerifyShardConsistency(oldRoot, head.Head, cons)
		}, &cons.Shards[0].Path[0][0]},
		{"head signature", func() bool { return aolog.VerifyHeadBLS(pk, &head) }, &head.Signature[len(head.Signature)-1]},
		{"threshold signature", verifySig, &sigBytes[len(sigBytes)-1]},
	} {
		if !c.verify() {
			return fmt.Errorf("untampered %s does not verify", c.what)
		}
		*c.flip ^= 1
		if c.verify() {
			return fmt.Errorf("%s with one byte flipped still verifies", c.what)
		}
	}
	return nil
}
