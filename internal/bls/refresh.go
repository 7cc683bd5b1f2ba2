package bls

import (
	"crypto/rand"
	"errors"
	"fmt"

	"repro/internal/bls12381"
	"repro/internal/ff"
)

// Proactive share refresh (epoch rotation). A refresh re-shares the SAME
// group secret with a fresh random polynomial: the dealer samples a
// zero-polynomial g (g(0) = 0, degree exactly t-1) and every share moves
// from f(i) to f(i) + g(i). The group public key f(0)*G2 — and therefore
// every signature ever produced — is unchanged, while the per-share
// public keys and the Feldman commitment rotate. Shares from different
// epochs are shares of DIFFERENT polynomials with the same constant
// term, so any mix of t shares drawn across epochs interpolates to a
// wrong secret: compromising t-1 shares in epoch e and one more in
// epoch e+1 wins nothing. Epochs count refreshes, starting at 0 for the
// initial dealing.

// RefreshDelta is one share's move to the next epoch: the dealer's
// zero-polynomial evaluated at the share's index.
type RefreshDelta struct {
	Index uint32
	Delta ff.Fr
}

// Refresh is one dealer-side refresh ceremony package: everything the
// coordinator needs to drive all n domains to the next epoch, plus the
// rotated public key material that becomes current once they all have.
// A ceremony interrupted by a crash must be re-driven with the SAME
// package (the CeremonyID lets domains acknowledge replays
// idempotently); generating a second package for the same target epoch
// would strand the domains that already applied the first.
type Refresh struct {
	// CeremonyID makes retries of this exact ceremony recognizable.
	CeremonyID [16]byte
	// NewEpoch is the epoch the deployment moves to (old epoch + 1).
	NewEpoch uint64
	// Deltas holds one share update per index, in index order 1..N.
	Deltas []RefreshDelta
	// NewKey is the threshold public key after the refresh: same
	// GroupKey, rotated ShareKeys and Commitment, Epoch = NewEpoch.
	NewKey *ThresholdKey
}

// NewRefresh samples a refresh ceremony for the deployment described by
// tk. tk must carry the Feldman commitment (the full public dealing),
// because the rotated commitment is derived from it and domains verify
// their new shares against it.
func NewRefresh(tk *ThresholdKey) (*Refresh, error) {
	if tk == nil || tk.N < 1 || tk.T < 1 || tk.T > tk.N {
		return nil, errors.New("bls: refresh: invalid threshold key")
	}
	if len(tk.Commitment) != tk.T {
		return nil, fmt.Errorf("bls: refresh: threshold key carries %d commitment terms, want %d (refresh needs the full Feldman commitment)", len(tk.Commitment), tk.T)
	}
	if len(tk.ShareKeys) != tk.N {
		return nil, fmt.Errorf("bls: refresh: threshold key carries %d share keys, want %d", len(tk.ShareKeys), tk.N)
	}

	// g(X) = 0 + g1 X + ... + g_{t-1} X^{t-1}, every coefficient sampled
	// nonzero so g has degree exactly t-1: a lower-degree g is pinned
	// down by fewer leaked share differences than the threshold allows,
	// and so adds less cross-epoch randomness than it promises.
	coeffs := make([]ff.Fr, tk.T)
	for j := 1; j < tk.T; j++ {
		c, err := ff.RandFrNonZero()
		if err != nil {
			return nil, fmt.Errorf("bls: refresh: sampling polynomial: %w", err)
		}
		coeffs[j] = c
	}

	ref := &Refresh{NewEpoch: tk.Epoch + 1}
	if _, err := rand.Read(ref.CeremonyID[:]); err != nil {
		return nil, fmt.Errorf("bls: refresh: ceremony id: %w", err)
	}

	newKey := &ThresholdKey{
		N:        tk.N,
		T:        tk.T,
		Epoch:    ref.NewEpoch,
		GroupKey: tk.GroupKey,
	}
	ref.Deltas = make([]RefreshDelta, tk.N)
	newKey.ShareKeys = make([]PublicKey, tk.N)
	for i := 1; i <= tk.N; i++ {
		var x ff.Fr
		x.SetUint64(uint64(i))
		gi := evalPoly(coeffs, &x)
		ref.Deltas[i-1] = RefreshDelta{Index: uint32(i), Delta: gi}
		// New share key: old + g(i)*G2.
		giG2 := bls12381.G2ScalarBaseMult(&gi)
		var acc, term bls12381.G2Jac
		acc.FromAffine(&tk.ShareKeys[i-1].p)
		term.FromAffine(&giG2)
		acc.Add(&acc, &term)
		newKey.ShareKeys[i-1] = PublicKey{p: acc.Affine()}
	}
	// New commitment: constant term (the group key commitment) is
	// untouched; every higher term gains the matching g coefficient.
	newKey.Commitment = make([]bls12381.G2Affine, tk.T)
	newKey.Commitment[0] = tk.Commitment[0]
	for j := 1; j < tk.T; j++ {
		gjG2 := bls12381.G2ScalarBaseMult(&coeffs[j])
		var acc, term bls12381.G2Jac
		acc.FromAffine(&tk.Commitment[j])
		term.FromAffine(&gjG2)
		acc.Add(&acc, &term)
		newKey.Commitment[j] = acc.Affine()
	}
	ref.NewKey = newKey
	return ref, nil
}

// RebuildThresholdKey reconstructs the FULL public side of a dealing —
// group key, all n share keys, Feldman commitment, epoch — from any t
// key shares of one epoch. Only a party holding t share scalars can do
// this (it reconstructs the polynomial's coefficients on the way), so
// it is a dealer-side recovery tool: the single-machine demo daemon
// uses it to re-derive the current epoch's public record from the
// durable share files, making those files the only ground truth a
// restart needs. Every additional share provided beyond the first t is
// cross-checked against the rebuilt polynomial, so a corrupted share
// file surfaces as an error instead of a torn deployment.
func RebuildThresholdKey(shares []KeyShare, t, n int) (*ThresholdKey, error) {
	if t < 1 || n < t {
		return nil, fmt.Errorf("bls: rebuild: invalid threshold %d of %d", t, n)
	}
	if len(shares) < t {
		return nil, fmt.Errorf("bls: rebuild: need %d shares, have %d", t, len(shares))
	}
	seen := make(map[uint32]bool, t)
	for _, ks := range shares {
		if ks.Index == 0 || int(ks.Index) > n {
			return nil, fmt.Errorf("bls: rebuild: share index %d out of range", ks.Index)
		}
		if ks.Epoch != shares[0].Epoch {
			return nil, fmt.Errorf("bls: rebuild: shares from mixed epochs (%d and %d)", shares[0].Epoch, ks.Epoch)
		}
		if seen[ks.Index] {
			return nil, fmt.Errorf("bls: rebuild: duplicate share index %d", ks.Index)
		}
		seen[ks.Index] = true
	}

	// Lagrange-to-monomial: coeffs(X) = sum_i y_i * L_i(X), with each
	// basis polynomial expanded to coefficient form.
	coeffs := make([]ff.Fr, t)
	for i := 0; i < t; i++ {
		basis := make([]ff.Fr, 1, t)
		basis[0].SetOne()
		var denom ff.Fr
		denom.SetOne()
		var xi ff.Fr
		xi.SetUint64(uint64(shares[i].Index))
		for j := 0; j < t; j++ {
			if j == i {
				continue
			}
			var xj ff.Fr
			xj.SetUint64(uint64(shares[j].Index))
			// basis *= (X - xj)
			next := make([]ff.Fr, len(basis)+1)
			for k := range basis {
				var term ff.Fr
				term.Mul(&basis[k], &xj)
				next[k].Sub(&next[k], &term)
				next[k+1].Add(&next[k+1], &basis[k])
			}
			basis = next
			var diff ff.Fr
			diff.Sub(&xi, &xj)
			denom.Mul(&denom, &diff)
		}
		var scale ff.Fr
		scale.Inverse(&denom)
		scale.Mul(&scale, &shares[i].Share)
		for k := range basis {
			var term ff.Fr
			term.Mul(&basis[k], &scale)
			coeffs[k].Add(&coeffs[k], &term)
		}
	}

	// Every extra share must lie on the reconstructed polynomial.
	for _, ks := range shares[t:] {
		var x ff.Fr
		x.SetUint64(uint64(ks.Index))
		y := evalPoly(coeffs, &x)
		if !y.Equal(&ks.Share) {
			return nil, fmt.Errorf("bls: rebuild: share %d is inconsistent with the other shares (corrupt share file?)", ks.Index)
		}
	}
	if coeffs[0].IsZero() {
		return nil, errors.New("bls: rebuild: reconstructed secret is zero")
	}

	tk, _, err := thresholdFromPolynomial(coeffs, n)
	if err != nil {
		return nil, err
	}
	tk.Epoch = shares[0].Epoch
	for i := range coeffs {
		coeffs[i].SetZero()
	}
	return tk, nil
}

// ApplyRefresh derives the share's next-epoch value from a refresh
// delta. It does not mutate ks; callers install the returned share and
// then Zeroize the old one.
func (ks *KeyShare) ApplyRefresh(newEpoch uint64, d *RefreshDelta) (KeyShare, error) {
	if d.Index != ks.Index {
		return KeyShare{}, fmt.Errorf("bls: refresh delta for share %d applied to share %d", d.Index, ks.Index)
	}
	if newEpoch != ks.Epoch+1 {
		return KeyShare{}, fmt.Errorf("bls: refresh to epoch %d from epoch %d (must advance by exactly one)", newEpoch, ks.Epoch)
	}
	var y ff.Fr
	y.Add(&ks.Share, &d.Delta)
	return KeyShare{Index: ks.Index, Epoch: newEpoch, Share: y}, nil
}

// Zeroize clears the share scalar in place. Domains call this on the
// old-epoch share the moment the refreshed one is durably installed, so
// a later compromise of the process image cannot recover retired
// epochs' shares.
func (ks *KeyShare) Zeroize() {
	ks.Share.SetZero()
}
