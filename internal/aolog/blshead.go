package aolog

import (
	"errors"

	"repro/internal/bls"
)

// BLSSignedHead is a signed commitment to a log state: (size, head
// digest) under the log operator's BLS key, over the canonical bytes of
// HeadMessage. Two valid heads from one signer with the same Size but
// different Heads are a publicly verifiable proof of equivocation
// (gossip.EquivocationProof). BLS makes heads batchable: an auditor that
// collected heads from many monitors (or many heads from one monitor
// over time) verifies them all in a single multi-pairing via
// VerifyHeadsBLS, instead of one pairing check each.
type BLSSignedHead struct {
	Size      uint64 `json:"size"`
	Head      Digest `json:"head"`
	Signature []byte `json:"signature"` // 48-byte compressed G1 point
}

// SignHeadBLS signs a log state with a BLS secret key.
func SignHeadBLS(sk *bls.SecretKey, size uint64, head Digest) BLSSignedHead {
	sig := sk.Sign(headMessage(size, head))
	sb := sig.Bytes()
	return BLSSignedHead{Size: size, Head: head, Signature: sb[:]}
}

// VerifyHeadBLS verifies a single BLS-signed head.
func VerifyHeadBLS(pk *bls.PublicKey, sh *BLSSignedHead) bool {
	if sh == nil {
		return false
	}
	var sig bls.Signature
	if err := sig.SetBytes(sh.Signature); err != nil {
		return false
	}
	return bls.Verify(pk, headMessage(sh.Size, sh.Head), &sig)
}

// VerifyHeadsBLS batch-verifies signed heads against their signers' keys
// (pks[i] signed heads[i]; repeat a key to check many heads from one
// signer). All heads must verify; it costs one multi-pairing over the
// distinct keys instead of len(heads) sequential pairing checks.
func VerifyHeadsBLS(pks []*bls.PublicKey, heads []BLSSignedHead) error {
	if len(heads) == 0 {
		return errors.New("aolog: no heads to verify")
	}
	if len(pks) != len(heads) {
		return errors.New("aolog: key/head count mismatch")
	}
	msgs := make([][]byte, len(heads))
	sigs := make([]*bls.Signature, len(heads))
	for i := range heads {
		msgs[i] = headMessage(heads[i].Size, heads[i].Head)
		sigs[i] = new(bls.Signature)
		if err := sigs[i].SetBytes(heads[i].Signature); err != nil {
			return errors.New("aolog: malformed head signature")
		}
	}
	if !bls.VerifyBatch(pks, msgs, sigs) {
		return errors.New("aolog: head batch failed verification")
	}
	return nil
}
