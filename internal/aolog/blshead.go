package aolog

import "repro/internal/bls"

// BLSSignedHead is a signed commitment to a log state: (size, head
// digest) under the log operator's BLS key, over the canonical bytes of
// HeadMessage. Two valid heads from one signer with the same Size but
// different Heads are a publicly verifiable proof of equivocation
// (gossip.EquivocationProof). BLS makes heads batchable: a head's
// signature and the witness cosignatures over it verify in a single
// multi-pairing (gossip.VerifyCosignedHead).
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
