package bls12381

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/ff"
)

// HashToG1 hashes an arbitrary message into the order-r subgroup of G1
// using domain separation tag dst.
//
// The construction is try-and-increment followed by cofactor clearing:
// deterministic, uniform enough for the signature scheme in this
// reproduction, but NOT the RFC 9380 simplified-SWU map and NOT
// constant-time. The paper's prototype (libBLS) similarly predates RFC 9380.
// Cofactor clearing multiplies by the RFC 9380 effective cofactor
// h_eff = 1 - x (64 bits) instead of the true 126-bit cofactor h; the
// two maps differ but both land in the order-r subgroup, and hashing
// only needs subgroup membership plus determinism.
//
// MIGRATION NOTE: because [h_eff]P != [h]P, this changed the hash
// output (and therefore every signature) relative to builds before the
// scalar engine. Within one binary everything is consistent, but
// signed material persisted by an older build — durable monitor heads,
// witness-journal cosignatures, exported equivocation proofs — does
// not verify under the new hash. Pre-engine data directories must be
// regenerated (there are no deployed fleets of this reproduction; see
// DESIGN.md §8).
func HashToG1(msg []byte, dst []byte) G1Affine {
	j := hashToG1Jac(msg, dst)
	return j.Affine()
}

// hashToG1Jac is the core of HashToG1, stopping before the affine
// normalization so batch callers can share one inversion.
func hashToG1Jac(msg []byte, dst []byte) G1Jac {
	in := hashToFieldInput(msg, dst)
	for ctr := uint32(0); ctr < 65536; ctr++ {
		x, signBit := hashToFieldAttempt(in, ctr)
		// y^2 = x^3 + 4
		var y2, y ff.Fp
		y2.Square(&x)
		y2.Mul(&y2, &x)
		y2.Add(&y2, &g1B)
		if _, ok := y.Sqrt(&y2); !ok {
			continue
		}
		if y.Sign() != signBit {
			y.Neg(&y)
		}
		p := G1Affine{X: x, Y: y}
		out := g1ClearCofactorFast(&p)
		if out.IsInfinity() {
			continue
		}
		return out
	}
	// Unreachable in practice: each attempt succeeds with probability ~1/2.
	panic("bls12381: hash-to-curve failed after 2^16 attempts")
}

// HashToG1Batch hashes every message (with the shared domain tag) into
// G1, sharing ONE field inversion across the whole batch for the
// affine normalization. Element i equals HashToG1(msgs[i], dst);
// repeated messages are hashed once.
func HashToG1Batch(msgs [][]byte, dst []byte) []G1Affine {
	jacs := make([]G1Jac, len(msgs))
	seen := make(map[string]int, len(msgs))
	for i, m := range msgs {
		if j, ok := seen[string(m)]; ok {
			jacs[i] = jacs[j]
			continue
		}
		seen[string(m)] = i
		jacs[i] = hashToG1Jac(m, dst)
	}
	return g1BatchAffine(jacs)
}

const (
	hashTag0 = "BLS12381G1-TAI-0"
	hashTag1 = "BLS12381G1-TAI-1"
)

// hashToFieldInput builds the first hash's input for every attempt on
// (msg, dst): hashTag0 || len(dst) || dst || len(msg) || msg || ctr,
// lengths and counter 4-byte big-endian (so (dst, msg) pairs cannot
// collide across different boundaries), counter zero. It is built once
// per message; each attempt rewrites only the counter.
func hashToFieldInput(msg, dst []byte) []byte {
	in := make([]byte, 0, len(hashTag0)+4+len(dst)+4+len(msg)+4)
	in = append(in, hashTag0...)
	in = binary.BigEndian.AppendUint32(in, uint32(len(dst)))
	in = append(in, dst...)
	in = binary.BigEndian.AppendUint32(in, uint32(len(msg)))
	in = append(in, msg...)
	return append(in, 0, 0, 0, 0)
}

// hashToFieldAttempt derives (x, signBit) for attempt ctr from the
// input built by hashToFieldInput. It expands the hash to 64 bytes
// (d1 = SHA-256 of the input, d2 = SHA-256 of hashTag1 || d1) so the
// reduction mod p has negligible bias. Nothing escapes: both digests
// and the second input are fixed arrays.
func hashToFieldAttempt(in []byte, ctr uint32) (ff.Fp, int) {
	binary.BigEndian.PutUint32(in[len(in)-4:], ctr)
	var wide [64]byte
	d1 := sha256.Sum256(in)
	var in2 [len(hashTag1) + sha256.Size]byte
	copy(in2[:], hashTag1)
	copy(in2[len(hashTag1):], d1[:])
	d2 := sha256.Sum256(in2[:])
	copy(wide[:32], d1[:])
	copy(wide[32:], d2[:])
	var x ff.Fp
	x.SetBytesWide(wide[:])
	return x, int(d2[31] & 1)
}

// lengthPrefixed returns a 4-byte big-endian length followed by b, so
// HashToFr's parts cannot collide across different boundaries.
func lengthPrefixed(b []byte) []byte {
	out := make([]byte, 4+len(b))
	binary.BigEndian.PutUint32(out, uint32(len(b)))
	copy(out[4:], b)
	return out
}

// HashToFr hashes arbitrary bytes to a scalar, for challenge derivation.
func HashToFr(domain string, parts ...[]byte) ff.Fr {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		h.Write(lengthPrefixed(p))
	}
	d1 := h.Sum(nil)
	h2 := sha256.New()
	h2.Write([]byte(domain + "/2"))
	h2.Write(d1)
	d2 := h2.Sum(nil)
	var z ff.Fr
	z.SetBytesWide(append(d1, d2...))
	return z
}
