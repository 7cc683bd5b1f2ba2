// Package bls implements BLS signatures (Boneh-Lynn-Shacham) and
// (t, n)-threshold BLS signatures over BLS12-381, the application the
// paper's prototype evaluates (§5, Table 3).
//
// Layout: signatures live in G1 (48-byte compressed), public keys in G2
// (96-byte compressed): the "minimal signature size" variant. A threshold
// deployment splits the signing key into Shamir shares over the scalar
// field; each trust domain holds one share, produces a signature share, and
// any t shares combine via Lagrange interpolation in the exponent into the
// unique signature that verifies under the group public key.
//
// Verification hot paths are batched (see batch.go): VerifyBatch folds
// many independent signatures into one multi-pairing via random linear
// combination, and VerifyAggregateSameMsg is the same-message aggregate
// fast path. A threshold signature is combined first and checked once
// under the group key (ThresholdKey.Combine); its shares are checked one
// by one only to name a bad one.
package bls

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bls12381"
	"repro/internal/ff"
)

// SignatureDST is the domain separation tag for message hashing.
var SignatureDST = []byte("REPRO-BLS-SIG-V1")

// PopDST is the domain separation tag for proofs of possession.
var PopDST = []byte("REPRO-BLS-POP-V1")

// SecretKey is a BLS secret key: a scalar.
type SecretKey struct {
	s ff.Fr
}

// PublicKey is a BLS public key: sk * G2.
type PublicKey struct {
	p bls12381.G2Affine
}

// Signature is a BLS signature: sk * H(m) in G1.
type Signature struct {
	p bls12381.G1Affine
}

// GenerateKey samples a fresh key pair from crypto/rand.
func GenerateKey() (*SecretKey, *PublicKey, error) {
	s, err := ff.RandFrNonZero()
	if err != nil {
		return nil, nil, fmt.Errorf("bls: keygen: %w", err)
	}
	sk := &SecretKey{s: s}
	return sk, sk.PublicKey(), nil
}

// SecretKeyFromScalar wraps an existing scalar as a secret key.
// The scalar must be nonzero.
func SecretKeyFromScalar(s *ff.Fr) (*SecretKey, error) {
	if s.IsZero() {
		return nil, errors.New("bls: zero secret key")
	}
	var cp ff.Fr
	cp.Set(s)
	return &SecretKey{s: cp}, nil
}

// Scalar returns a copy of the underlying scalar.
func (sk *SecretKey) Scalar() ff.Fr { return sk.s }

// Bytes returns the canonical 32-byte encoding of the secret key — the
// format persistent deployments write to key files.
func (sk *SecretKey) Bytes() []byte {
	b := sk.s.Bytes()
	return b[:]
}

// SecretKeyFromBytes parses the encoding produced by Bytes.
func SecretKeyFromBytes(in []byte) (*SecretKey, error) {
	var s ff.Fr
	if err := s.SetBytes(in); err != nil {
		return nil, fmt.Errorf("bls: secret key bytes: %w", err)
	}
	return SecretKeyFromScalar(&s)
}

// PublicKey derives the public key sk * G2.
func (sk *SecretKey) PublicKey() *PublicKey {
	return &PublicKey{p: bls12381.G2ScalarBaseMult(&sk.s)}
}

// Sign produces a signature on msg: sk * H(msg). The hash point stays
// Jacobian into the scalar multiplication, so signing normalizes once.
func (sk *SecretKey) Sign(msg []byte) *Signature {
	h := bls12381.HashToG1Jac(msg, SignatureDST)
	var out bls12381.G1Jac
	out.ScalarMult(&h, &sk.s)
	return &Signature{p: out.Affine()}
}

// ProvePossession returns a proof of possession: a signature over the
// public key bytes under the PoP domain tag. Required before aggregating
// keys to prevent rogue-key attacks.
func (sk *SecretKey) ProvePossession() *Signature {
	pkb := sk.PublicKey().Bytes()
	h := bls12381.HashToG1Jac(pkb[:], PopDST)
	var out bls12381.G1Jac
	out.ScalarMult(&h, &sk.s)
	return &Signature{p: out.Affine()}
}

// VerifyPossession checks a proof of possession for pk.
func VerifyPossession(pk *PublicKey, pop *Signature) bool {
	pkb := pk.Bytes()
	return verifyWithDST(pk, pkb[:], pop, PopDST)
}

// Verify reports whether sig is a valid signature on msg under pk:
// e(sig, G2) == e(H(msg), pk), checked as e(sig, -G2) * e(H(msg), pk) == 1.
func Verify(pk *PublicKey, msg []byte, sig *Signature) bool {
	obs.verifies.Inc()
	return verifyWithDST(pk, msg, sig, SignatureDST)
}

func verifyWithDST(pk *PublicKey, msg []byte, sig *Signature, dst []byte) bool {
	if sig == nil || pk == nil || sig.p.IsInfinity() || pk.p.IsInfinity() {
		return false
	}
	h := bls12381.HashToG1(msg, dst)
	return bls12381.PairingCheckPrepared(
		[]bls12381.G1Affine{sig.p, h},
		[]*bls12381.G2Prepared{negG2(), keyTables.get(&pk.p)},
	)
}

// AggregateSignatures sums signatures (for the same or distinct messages).
func AggregateSignatures(sigs ...*Signature) (*Signature, error) {
	if len(sigs) == 0 {
		return nil, errors.New("bls: no signatures to aggregate")
	}
	var acc bls12381.G1Jac
	acc.SetInfinity()
	for _, s := range sigs {
		if s == nil {
			return nil, errors.New("bls: nil signature in aggregate")
		}
		var j bls12381.G1Jac
		j.FromAffine(&s.p)
		acc.Add(&acc, &j)
	}
	a := acc.Affine()
	return &Signature{p: a}, nil
}

// AggregatePublicKeys sums public keys. Callers must have verified proofs
// of possession for each key.
func AggregatePublicKeys(pks ...*PublicKey) (*PublicKey, error) {
	if len(pks) == 0 {
		return nil, errors.New("bls: no public keys to aggregate")
	}
	var acc bls12381.G2Jac
	acc.SetInfinity()
	for _, pk := range pks {
		if pk == nil {
			return nil, errors.New("bls: nil public key in aggregate")
		}
		var j bls12381.G2Jac
		j.FromAffine(&pk.p)
		acc.Add(&acc, &j)
	}
	a := acc.Affine()
	return &PublicKey{p: a}, nil
}

// VerifyAggregate verifies an aggregate signature over distinct messages,
// one per public key: prod e(H(mi), pki) == e(sig, G2).
func VerifyAggregate(pks []*PublicKey, msgs [][]byte, sig *Signature) bool {
	if len(pks) == 0 || len(pks) != len(msgs) || sig == nil || sig.p.IsInfinity() {
		return false
	}
	// Distinct-message requirement blocks forgery by signature splitting.
	seen := make(map[string]bool, len(msgs))
	for _, m := range msgs {
		if seen[string(m)] {
			return false
		}
		seen[string(m)] = true
	}
	for _, pk := range pks {
		if pk == nil || pk.p.IsInfinity() {
			return false
		}
	}
	ps := make([]bls12381.G1Affine, 0, len(pks)+1)
	qs := make([]*bls12381.G2Prepared, 0, len(pks)+1)
	ps = append(ps, sig.p)
	qs = append(qs, negG2())
	hashes := bls12381.HashToG1Batch(msgs, SignatureDST)
	for i, pk := range pks {
		ps = append(ps, hashes[i])
		qs = append(qs, keyTables.get(&pk.p))
	}
	return bls12381.PairingCheckPrepared(ps, qs)
}

// Bytes returns the 96-byte compressed encoding of pk.
func (pk *PublicKey) Bytes() [bls12381.G2CompressedSize]byte { return pk.p.Bytes() }

// SetBytes decodes a public key, rejecting off-curve or non-subgroup points.
func (pk *PublicKey) SetBytes(in []byte) error { return pk.p.SetBytes(in) }

// Equal reports whether pk == other.
func (pk *PublicKey) Equal(other *PublicKey) bool { return pk.p.Equal(&other.p) }

// Point returns a copy of the underlying G2 point.
func (pk *PublicKey) Point() bls12381.G2Affine { return pk.p }

// Bytes returns the 48-byte compressed encoding of sig.
func (sig *Signature) Bytes() [bls12381.G1CompressedSize]byte { return sig.p.Bytes() }

// SetBytes decodes a signature, rejecting off-curve or non-subgroup points.
func (sig *Signature) SetBytes(in []byte) error { return sig.p.SetBytes(in) }

// Equal reports whether sig == other.
func (sig *Signature) Equal(other *Signature) bool { return sig.p.Equal(&other.p) }

// Point returns a copy of the underlying G1 point.
func (sig *Signature) Point() bls12381.G1Affine { return sig.p }

// lagrangeCoefficient computes the Lagrange basis polynomial L_i(0) over
// the share indexes in xs (all distinct, nonzero).
func lagrangeCoefficient(i int, xs []uint32) (ff.Fr, error) {
	var num, den ff.Fr
	num.SetOne()
	den.SetOne()
	var xi ff.Fr
	xi.SetUint64(uint64(xs[i]))
	for j, xjv := range xs {
		if j == i {
			continue
		}
		if xjv == xs[i] {
			return ff.Fr{}, fmt.Errorf("bls: duplicate share index %d", xjv)
		}
		var xj ff.Fr
		xj.SetUint64(uint64(xjv))
		// num *= (0 - xj) ; den *= (xi - xj)
		var negXj, diff ff.Fr
		negXj.Neg(&xj)
		num.Mul(&num, &negXj)
		diff.Sub(&xi, &xj)
		den.Mul(&den, &diff)
	}
	den.Inverse(&den)
	var out ff.Fr
	out.Mul(&num, &den)
	return out, nil
}

// SignatureShare is a partial signature produced by share Index at a
// given refresh epoch.
type SignatureShare struct {
	Index uint32
	Epoch uint64
	Sig   Signature
}

// CombineShares interpolates at least t signature shares (with distinct
// indexes, all from the same refresh epoch) into the group signature.
// It checks no signature: ThresholdKey.Combine is the checked form,
// which returns the result only if it verifies under the group key.
// Shares tagged with different epochs are rejected: they were
// produced under different sharings of the secret and interpolate to a
// signature that verifies under no key.
func CombineShares(shares []SignatureShare, t int) (*Signature, error) {
	if len(shares) < t {
		return nil, fmt.Errorf("bls: need at least %d shares, have %d", t, len(shares))
	}
	use := make([]SignatureShare, len(shares))
	copy(use, shares)
	sort.Slice(use, func(a, b int) bool { return use[a].Index < use[b].Index })
	use = use[:t]

	xs := make([]uint32, t)
	for i, s := range use {
		if s.Index == 0 {
			return nil, errors.New("bls: share index 0 is reserved")
		}
		if s.Epoch != use[0].Epoch {
			return nil, fmt.Errorf("bls: signature shares from mixed epochs (%d and %d) never combine", use[0].Epoch, s.Epoch)
		}
		xs[i] = s.Index
	}
	// Interpolation in the exponent as one multi-scalar multiplication
	// over the Lagrange coefficients.
	points := make([]bls12381.G1Affine, t)
	coeffs := make([]ff.Fr, t)
	for i, s := range use {
		li, err := lagrangeCoefficient(i, xs)
		if err != nil {
			return nil, err
		}
		points[i] = s.Sig.p
		coeffs[i] = li
	}
	acc := bls12381.G1MultiScalarMult(points, coeffs)
	a := acc.Affine()
	return &Signature{p: a}, nil
}
