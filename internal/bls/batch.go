package bls

import (
	"crypto/rand"
	"time"

	"repro/internal/bls12381"
	"repro/internal/ff"
)

// Batch verification via random linear combination: instead of one pairing
// check (two Miller loops plus a final exponentiation) per signature, a
// batch of n triples (pk_i, m_i, sig_i) is checked as
//
//	e(sum r_i*sig_i, -G2) * prod_pk e(sum_{i: pk_i=pk} r_i*H(m_i), pk) == 1
//
// for verifier-chosen random 128-bit coefficients r_i. A batch over d
// distinct public keys costs d+1 lockstep Miller loops, ONE final
// exponentiation, and the random-linear-combination folds run as
// Pippenger multi-scalar multiplications over the half-length
// coefficients — versus 2n Miller loops, n final exponentiations, and
// 2n scalar multiplications for sequential Verify calls. Soundness: if any
// triple is invalid, the combined check passes with probability at most
// 2^-128 over the r_i (the standard small-exponents argument); coefficients
// are drawn fresh from crypto/rand on every call, so a forger cannot target
// them.

// batchCoeff samples a nonzero 128-bit scalar from crypto/rand.
func batchCoeff() (ff.Fr, error) {
	var buf [32]byte
	if _, err := rand.Read(buf[16:]); err != nil {
		return ff.Fr{}, err
	}
	var r ff.Fr
	if err := r.SetBytes(buf[:]); err != nil {
		return ff.Fr{}, err
	}
	if r.IsZero() {
		r.SetOne()
	}
	return r, nil
}

// VerifyBatch reports whether every (pks[i], msgs[i], sigs[i]) triple is a
// valid signature, amortizing one multi-pairing over the whole batch. It is
// equivalent to calling Verify on each triple (up to the 2^-128 soundness
// error described above): messages may repeat, keys may repeat, and unlike
// VerifyAggregate no distinct-message rule is needed because each triple
// carries its own signature. An empty batch is rejected.
func VerifyBatch(pks []*PublicKey, msgs [][]byte, sigs []*Signature) bool {
	start := time.Now()
	return observeBatch(len(sigs), start, verifyBatch(pks, msgs, sigs))
}

func verifyBatch(pks []*PublicKey, msgs [][]byte, sigs []*Signature) bool {
	n := len(sigs)
	if n == 0 || len(pks) != n || len(msgs) != n {
		return false
	}
	if n == 1 {
		return Verify(pks[0], msgs[0], sigs[0])
	}
	// One pairing slot per distinct public key, in order of appearance.
	// The per-key folds sum r_i * H(m_i); instead of one scalar
	// multiplication per item they run as Pippenger multi-scalar
	// multiplications, and repeated messages (a quorum countersigning
	// one head, many heads from one signer) are hashed once.
	type group struct {
		pk      bls12381.G2Affine
		points  []bls12381.G1Affine // H(m_i) for this key's messages
		scalars []ff.Fr             // matching r_i
	}
	var groups []group
	index := make(map[[bls12381.G2CompressedSize]byte]int, 4)
	sigPoints := make([]bls12381.G1Affine, n)
	coeffs := make([]ff.Fr, n)
	for i := 0; i < n; i++ {
		if sigs[i] == nil || pks[i] == nil || sigs[i].p.IsInfinity() || pks[i].p.IsInfinity() {
			return false
		}
		r, err := batchCoeff()
		if err != nil {
			return false
		}
		sigPoints[i] = sigs[i].p
		coeffs[i] = r
	}
	hashes := bls12381.HashToG1Batch(msgs, SignatureDST)
	for i := 0; i < n; i++ {
		key := pks[i].p.Bytes()
		gi, ok := index[key]
		if !ok {
			gi = len(groups)
			index[key] = gi
			groups = append(groups, group{pk: pks[i].p})
		}
		groups[gi].points = append(groups[gi].points, hashes[i])
		groups[gi].scalars = append(groups[gi].scalars, coeffs[i])
	}
	sigAcc := bls12381.G1MultiScalarMult(sigPoints, coeffs)
	ps := make([]bls12381.G1Affine, 0, len(groups)+1)
	qs := make([]*bls12381.G2Prepared, 0, len(groups)+1)
	ps = append(ps, sigAcc.Affine())
	qs = append(qs, negG2())
	for i := range groups {
		acc := bls12381.G1MultiScalarMult(groups[i].points, groups[i].scalars)
		ps = append(ps, acc.Affine())
		qs = append(qs, keyTables.get(&groups[i].pk))
	}
	return bls12381.PairingCheckPrepared(ps, qs)
}

// VerifyAggregateSameMsg is the fast path for n signers of the SAME
// message whose signatures were aggregated with AggregateSignatures: it
// folds the public keys and performs a single pairing check,
// e(sig, -G2) * e(H(m), sum pk_i) == 1. Callers must have verified a proof
// of possession for every key (VerifyPossession); without that, rogue-key
// attacks forge aggregates.
func VerifyAggregateSameMsg(pks []*PublicKey, msg []byte, sig *Signature) bool {
	if len(pks) == 0 || sig == nil || sig.p.IsInfinity() {
		return false
	}
	apk, err := AggregatePublicKeys(pks...)
	if err != nil || apk.p.IsInfinity() {
		return false
	}
	return Verify(apk, msg, sig)
}
