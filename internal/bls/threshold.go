package bls

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bls12381"
	"repro/internal/ff"
)

// Threshold key generation with a trusted dealer plus Feldman verifiable
// secret sharing, so share holders (the trust domains) can verify their
// shares against a public commitment without trusting the dealer blindly.

// KeyShare is one trust domain's share of the group signing key.
// Epoch counts proactive refreshes of the deployment (see refresh.go);
// shares from different epochs belong to different polynomials and must
// never be combined.
type KeyShare struct {
	Index uint32 // 1-based Shamir evaluation point
	Epoch uint64 // refresh epoch this share belongs to
	Share ff.Fr  // f_epoch(Index)
}

// ThresholdKey is the public side of a threshold deployment. GroupKey
// is stable across refresh epochs; ShareKeys and Commitment are
// per-epoch.
type ThresholdKey struct {
	N          int                 // number of shares
	T          int                 // threshold: T shares reconstruct
	Epoch      uint64              // refresh epoch of ShareKeys/Commitment
	GroupKey   PublicKey           // f(0) * G2
	ShareKeys  []PublicKey         // f(i) * G2 for i = 1..N (index i-1)
	Commitment []bls12381.G2Affine // Feldman commitment: coeff_j * G2
}

// ThresholdKeyGen splits a fresh random signing key into n Shamir shares
// with threshold t (any t reconstruct, t-1 reveal nothing). It returns the
// public threshold key and the n key shares.
func ThresholdKeyGen(t, n int) (*ThresholdKey, []KeyShare, error) {
	if t < 1 || n < t {
		return nil, nil, fmt.Errorf("bls: invalid threshold %d of %d", t, n)
	}
	// f(X) = a0 + a1 X + ... + a_{t-1} X^{t-1}, secret = a0.
	coeffs := make([]ff.Fr, t)
	for i := range coeffs {
		c, err := ff.RandFrNonZero()
		if err != nil {
			return nil, nil, fmt.Errorf("bls: threshold keygen: %w", err)
		}
		coeffs[i] = c
	}
	return thresholdFromPolynomial(coeffs, n)
}

// thresholdFromPolynomial derives shares and commitments from explicit
// polynomial coefficients (exported for deterministic tests via keygen).
func thresholdFromPolynomial(coeffs []ff.Fr, n int) (*ThresholdKey, []KeyShare, error) {
	t := len(coeffs)
	shares := make([]KeyShare, n)
	shareKeys := make([]PublicKey, n)
	for i := 1; i <= n; i++ {
		var x ff.Fr
		x.SetUint64(uint64(i))
		y := evalPoly(coeffs, &x)
		shares[i-1] = KeyShare{Index: uint32(i), Share: y}
		shareKeys[i-1] = PublicKey{p: bls12381.G2ScalarBaseMult(&y)}
	}
	commit := make([]bls12381.G2Affine, t)
	for j := range coeffs {
		commit[j] = bls12381.G2ScalarBaseMult(&coeffs[j])
	}
	tk := &ThresholdKey{
		N:          n,
		T:          t,
		GroupKey:   PublicKey{p: bls12381.G2ScalarBaseMult(&coeffs[0])},
		ShareKeys:  shareKeys,
		Commitment: commit,
	}
	return tk, shares, nil
}

// evalPoly evaluates the polynomial with the given coefficients at x
// (Horner's rule).
func evalPoly(coeffs []ff.Fr, x *ff.Fr) ff.Fr {
	var acc ff.Fr
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(&acc, x)
		acc.Add(&acc, &coeffs[i])
	}
	return acc
}

// VerifyShare checks a key share against the Feldman commitment:
// share * G2 must equal sum_j Commitment[j] * index^j. The commitment is
// per-epoch, so a share from any other epoch is rejected outright.
func (tk *ThresholdKey) VerifyShare(ks *KeyShare) bool {
	if ks.Index == 0 || int(ks.Index) > tk.N || ks.Epoch != tk.Epoch {
		return false
	}
	lhs := bls12381.G2ScalarBaseMult(&ks.Share)

	// sum_j Commitment[j] * index^j as one multi-scalar multiplication
	// over the powers of the evaluation point.
	var x, xj ff.Fr
	x.SetUint64(uint64(ks.Index))
	xj.SetOne()
	powers := make([]ff.Fr, len(tk.Commitment))
	for j := range powers {
		powers[j] = xj
		xj.Mul(&xj, &x)
	}
	acc := bls12381.G2MultiScalarMult(tk.Commitment, powers)
	rhs := acc.Affine()
	return lhs.Equal(&rhs)
}

// SignShare produces share index's partial signature on msg. This is the
// exact operation Table 3 of the paper times.
func (ks *KeyShare) SignShare(msg []byte) SignatureShare {
	h := bls12381.HashToG1(msg, SignatureDST)
	var j, out bls12381.G1Jac
	j.FromAffine(&h)
	out.ScalarMult(&j, &ks.Share)
	return SignatureShare{Index: ks.Index, Epoch: ks.Epoch, Sig: Signature{p: out.Affine()}}
}

// VerifyShareSignature checks a signature share against the matching share
// public key from the threshold key. Share keys rotate every refresh, so
// a share tagged with any other epoch is rejected before the pairing.
func (tk *ThresholdKey) VerifyShareSignature(msg []byte, ss *SignatureShare) bool {
	if ss.Index == 0 || int(ss.Index) > tk.N || ss.Epoch != tk.Epoch {
		return false
	}
	pk := tk.ShareKeys[ss.Index-1]
	return Verify(&pk, msg, &ss.Sig)
}

// ErrShareKeysDisagree reports t signature shares that each verify
// under their share keys but combine to a signature the group key
// rejects: the threshold key's share keys and group key are not one
// sharing, and no other choice of shares can help.
var ErrShareKeysDisagree = errors.New("bls: shares that verify under their share keys combine to a signature the group key rejects")

// Combine interpolates exactly tk.T signature shares on msg into the
// group signature and returns it only if it verifies under tk.GroupKey,
// whose line table is memoized: one pairing check per signature, and no
// share key is walked when the shares are good. Shares out of the key's
// index range, from another epoch or repeating an index are dropped
// before combining. When the combined signature does not verify, each
// share is checked under its share key, only to name the bad ones. On
// any failure Combine returns the shares worth keeping, in order, and
// an error naming the first one dropped, or ErrShareKeysDisagree when
// none was. A signature is never returned unverified.
func (tk *ThresholdKey) Combine(msg []byte, shares []SignatureShare) (*Signature, []SignatureShare, error) {
	if len(shares) != tk.T {
		return nil, nil, fmt.Errorf("bls: combining needs exactly %d shares, have %d", tk.T, len(shares))
	}
	kept := make([]SignatureShare, 0, len(shares))
	var bad error
	drop := func(err error) {
		if bad == nil {
			bad = err
		}
	}
	for _, ss := range shares {
		switch {
		case ss.Index == 0 || int(ss.Index) > tk.N:
			drop(fmt.Errorf("bls: share index %d is outside 1..%d", ss.Index, tk.N))
		case ss.Epoch != tk.Epoch:
			drop(fmt.Errorf("bls: share index %d is from epoch %d, the key is at epoch %d", ss.Index, ss.Epoch, tk.Epoch))
		case slices.ContainsFunc(kept, func(k SignatureShare) bool { return k.Index == ss.Index }):
			drop(fmt.Errorf("bls: duplicate share index %d", ss.Index))
		default:
			kept = append(kept, ss)
		}
	}
	if bad != nil {
		return nil, kept, bad
	}
	if sig, err := CombineShares(kept, tk.T); err == nil && Verify(&tk.GroupKey, msg, sig) {
		return sig, nil, nil
	}
	valid := kept[:0]
	for i := range kept {
		if tk.VerifyShareSignature(msg, &kept[i]) {
			valid = append(valid, kept[i])
		} else {
			drop(fmt.Errorf("bls: share index %d does not verify under its share key", kept[i].Index))
		}
	}
	if bad == nil {
		bad = ErrShareKeysDisagree
	}
	return nil, valid, bad
}

// ThresholdSign is a convenience that signs msg with the provided key
// shares, t at a time, and combines them into a group signature
// (Combine). A share that Combine drops is replaced by the next key
// share's until t good ones are in hand.
func ThresholdSign(tk *ThresholdKey, shares []KeyShare, msg []byte) (*Signature, error) {
	// Shares from other epochs belong to different polynomials: they can
	// never combine with tk's epoch, so they are dropped up front rather
	// than wasted on signing.
	sameEpoch := make([]KeyShare, 0, len(shares))
	for _, ks := range shares {
		if ks.Epoch == tk.Epoch {
			sameEpoch = append(sameEpoch, ks)
		}
	}
	if len(sameEpoch) < tk.T {
		return nil, errors.New("bls: not enough key shares at the key's epoch")
	}
	sigShares := make([]SignatureShare, 0, tk.T)
	next := 0
	for {
		for ; len(sigShares) < tk.T && next < len(sameEpoch); next++ {
			sigShares = append(sigShares, sameEpoch[next].SignShare(msg))
		}
		if len(sigShares) < tk.T {
			return nil, errors.New("bls: not enough valid signature shares")
		}
		sig, kept, err := tk.Combine(msg, sigShares)
		if err == nil || errors.Is(err, ErrShareKeysDisagree) {
			return sig, err
		}
		sigShares = kept
	}
}

// RecoverSecret reconstructs the group secret from any t key shares.
// Provided for the key-backup application; signing deployments never need
// to reassemble the key.
func RecoverSecret(shares []KeyShare, t int) (*SecretKey, error) {
	if len(shares) < t {
		return nil, fmt.Errorf("bls: need %d shares to recover, have %d", t, len(shares))
	}
	xs := make([]uint32, t)
	for i := 0; i < t; i++ {
		if shares[i].Index == 0 {
			return nil, errors.New("bls: share index 0 is reserved")
		}
		if shares[i].Epoch != shares[0].Epoch {
			return nil, fmt.Errorf("bls: key shares from mixed epochs (%d and %d) do not reconstruct the secret", shares[0].Epoch, shares[i].Epoch)
		}
		xs[i] = shares[i].Index
	}
	var acc ff.Fr
	for i := 0; i < t; i++ {
		li, err := lagrangeCoefficient(i, xs)
		if err != nil {
			return nil, err
		}
		var term ff.Fr
		term.Mul(&li, &shares[i].Share)
		acc.Add(&acc, &term)
	}
	return SecretKeyFromScalar(&acc)
}
