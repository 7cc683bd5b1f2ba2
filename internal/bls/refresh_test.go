package bls

import (
	"testing"
)

// applyRefreshAll moves every share through ref, failing the test on any
// error.
func applyRefreshAll(t *testing.T, shares []KeyShare, ref *Refresh) []KeyShare {
	t.Helper()
	out := make([]KeyShare, len(shares))
	for i := range shares {
		next, err := shares[i].ApplyRefresh(ref.NewEpoch, &ref.Deltas[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = next
	}
	return out
}

func TestRefreshRotatesKeysButNotGroupKey(t *testing.T) {
	tk, shares, err := ThresholdKeyGen(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	nk := ref.NewKey
	if nk.Epoch != 1 || tk.Epoch != 0 {
		t.Fatalf("epochs: new %d old %d", nk.Epoch, tk.Epoch)
	}
	if !nk.GroupKey.Equal(&tk.GroupKey) {
		t.Fatal("refresh moved the group public key")
	}
	if !nk.Commitment[0].Equal(&tk.Commitment[0]) {
		t.Fatal("refresh moved the commitment's constant term")
	}
	rotated := false
	for i := range nk.ShareKeys {
		if !nk.ShareKeys[i].Equal(&tk.ShareKeys[i]) {
			rotated = true
		}
	}
	if !rotated {
		t.Fatal("refresh left every share public key unchanged")
	}

	// Every refreshed share verifies against the NEW commitment and
	// fails against the OLD one (and vice versa).
	fresh := applyRefreshAll(t, shares, ref)
	for i := range fresh {
		if !nk.VerifyShare(&fresh[i]) {
			t.Fatalf("refreshed share %d fails Feldman check against new commitment", i)
		}
		if tk.VerifyShare(&fresh[i]) {
			t.Fatalf("refreshed share %d verifies against the old commitment", i)
		}
		if nk.VerifyShare(&shares[i]) {
			t.Fatalf("old share %d verifies against the new commitment", i)
		}
	}

	// Same secret: t fresh shares reconstruct the same secret as t old
	// ones (key-backup path).
	oldSec, err := RecoverSecret(shares[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	newSec, err := RecoverSecret(fresh[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if oldSec.Scalar() != newSec.Scalar() {
		t.Fatal("refresh changed the shared secret")
	}
}

// TestCrossEpochSharesCannotForge is the headline adversarial property
// of proactive refresh: an attacker who compromises t-1 shares in epoch
// e and one more share in epoch e+1 holds t shares — and can forge
// nothing. The typed API refuses to combine them, and even force-mixing
// them (stripping the epoch tags, as a real attacker would) interpolates
// signatures and secrets that verify under no key.
func TestCrossEpochSharesCannotForge(t *testing.T) {
	const T, N = 3, 5
	tk, epoch0, err := ThresholdKeyGen(T, N)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	epoch1 := applyRefreshAll(t, epoch0, ref)
	msg := []byte("cross-epoch forgery attempt")

	// Loot: t-1 shares from epoch 0, 1 share from epoch 1, at distinct
	// indexes (the strongest mix available to the attacker).
	loot := []KeyShare{epoch0[0], epoch0[1], epoch1[2]}

	// 1. The typed APIs refuse the mix outright.
	if _, err := ThresholdSign(tk, loot, msg); err == nil {
		t.Fatal("ThresholdSign combined shares from mixed epochs")
	}
	if _, err := ThresholdSign(ref.NewKey, loot, msg); err == nil {
		t.Fatal("ThresholdSign (new key) combined shares from mixed epochs")
	}
	sigShares := make([]SignatureShare, len(loot))
	for i, ks := range loot {
		sigShares[i] = ks.SignShare(msg)
	}
	if _, err := CombineShares(sigShares, T); err == nil {
		t.Fatal("CombineShares accepted signature shares from mixed epochs")
	}
	if _, err := RecoverSecret(loot, T); err == nil {
		t.Fatal("RecoverSecret accepted key shares from mixed epochs")
	}

	// 2. Force the mix through anyway — lie about the epochs, exactly as
	// an attacker holding raw scalars would — for every way of drawing t
	// shares across the two epochs (k from the new epoch, t-k old).
	for k := 1; k < T; k++ {
		forced := make([]SignatureShare, 0, T)
		forcedKeys := make([]KeyShare, 0, T)
		for i := 0; i < T-k; i++ {
			forced = append(forced, epoch0[i].SignShare(msg))
			forcedKeys = append(forcedKeys, epoch0[i])
		}
		for i := T - k; i < T; i++ {
			forced = append(forced, epoch1[i].SignShare(msg))
			forcedKeys = append(forcedKeys, epoch1[i])
		}
		for i := range forced {
			forced[i].Epoch = 0 // strip the tags
			forcedKeys[i].Epoch = 0
		}
		sig, err := CombineShares(forced, T)
		if err != nil {
			t.Fatalf("mix k=%d: forced combine errored unexpectedly: %v", k, err)
		}
		if Verify(&tk.GroupKey, msg, sig) {
			t.Fatalf("mix k=%d: cross-epoch combination produced a VALID group signature (forgery!)", k)
		}
		sk, err := RecoverSecret(forcedKeys, T)
		if err != nil {
			t.Fatalf("mix k=%d: forced recovery errored unexpectedly: %v", k, err)
		}
		if sk.PublicKey().Equal(&tk.GroupKey) {
			t.Fatalf("mix k=%d: cross-epoch shares reconstructed the group secret", k)
		}
	}

	// 3. Control: t same-epoch shares still sign, in BOTH epochs, under
	// the SAME group key.
	for name, c := range map[string]struct {
		key    *ThresholdKey
		shares []KeyShare
	}{
		"epoch0": {tk, epoch0},
		"epoch1": {ref.NewKey, epoch1},
	} {
		sig, err := ThresholdSign(c.key, c.shares[:T], msg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Verify(&tk.GroupKey, msg, sig) {
			t.Fatalf("%s: same-epoch signature invalid under the (unchanged) group key", name)
		}
	}
}

// Threshold signatures are unique, so both epochs must produce the
// IDENTICAL signature — the property that keeps monitors, witnesses and
// every already-cosigned frontier oblivious to refreshes.
func TestRefreshPreservesSignatureBits(t *testing.T) {
	tk, epoch0, err := ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	epoch1 := applyRefreshAll(t, epoch0, ref)
	msg := []byte("signature uniqueness across epochs")
	s0, err := ThresholdSign(tk, epoch0, msg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ThresholdSign(ref.NewKey, epoch1, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !s0.Equal(s1) {
		t.Fatal("epoch 0 and epoch 1 signatures differ")
	}
}

// Share-level guards: deltas only apply at the right index and the next
// epoch, and multiple sequential refreshes keep working.
func TestApplyRefreshGuardsAndChains(t *testing.T) {
	tk, shares, err := ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shares[0].ApplyRefresh(ref.NewEpoch, &ref.Deltas[1]); err == nil {
		t.Fatal("delta for index 2 applied to share 1")
	}
	if _, err := shares[0].ApplyRefresh(ref.NewEpoch+1, &ref.Deltas[0]); err == nil {
		t.Fatal("skipping an epoch was accepted")
	}

	// Chain three refreshes; each epoch signs under the same group key.
	cur, curShares := tk, shares
	msg := []byte("chained refreshes")
	for round := 0; round < 3; round++ {
		r, err := NewRefresh(cur)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		curShares = applyRefreshAll(t, curShares, r)
		cur = r.NewKey
		if cur.Epoch != uint64(round+1) {
			t.Fatalf("round %d: epoch %d", round, cur.Epoch)
		}
		sig, err := ThresholdSign(cur, curShares, msg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !Verify(&tk.GroupKey, msg, sig) {
			t.Fatalf("round %d: signature invalid under original group key", round)
		}
	}

	// NewRefresh demands the full public dealing.
	if _, err := NewRefresh(&ThresholdKey{N: 3, T: 2, GroupKey: tk.GroupKey, ShareKeys: tk.ShareKeys}); err == nil {
		t.Fatal("NewRefresh accepted a key without its Feldman commitment")
	}
}

// RebuildThresholdKey must recover the exact public dealing of the
// shares' epoch — so a dealer-side daemon can lose every public record
// and still resume from the share files alone — and must detect both
// mixed epochs and corrupted shares.
func TestRebuildThresholdKeyRecoversPublicDealing(t *testing.T) {
	tk, epoch0, err := ThresholdKeyGen(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	epoch1 := applyRefreshAll(t, epoch0, ref)

	for name, c := range map[string]struct {
		want   *ThresholdKey
		shares []KeyShare
	}{
		"epoch0": {tk, epoch0},
		"epoch1": {ref.NewKey, epoch1},
	} {
		// Rebuild from an arbitrary t-subset plus extras (consistency
		// cross-check exercised), not just the first t.
		subset := []KeyShare{c.shares[4], c.shares[1], c.shares[2], c.shares[0]}
		got, err := RebuildThresholdKey(subset, 3, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Epoch != c.want.Epoch || !got.GroupKey.Equal(&c.want.GroupKey) {
			t.Fatalf("%s: rebuilt wrong key identity", name)
		}
		for i := range c.want.ShareKeys {
			if !got.ShareKeys[i].Equal(&c.want.ShareKeys[i]) {
				t.Fatalf("%s: share key %d mismatch", name, i)
			}
		}
		for i := range c.want.Commitment {
			if !got.Commitment[i].Equal(&c.want.Commitment[i]) {
				t.Fatalf("%s: commitment term %d mismatch", name, i)
			}
		}
		// The rebuilt key is fully functional: it verifies shares and
		// seeds the next ceremony.
		for i := range c.shares {
			if !got.VerifyShare(&c.shares[i]) {
				t.Fatalf("%s: rebuilt key rejects share %d", name, i)
			}
		}
		if _, err := NewRefresh(got); err != nil {
			t.Fatalf("%s: rebuilt key cannot seed a refresh: %v", name, err)
		}
	}

	// Mixed epochs and corrupted shares are rejected.
	if _, err := RebuildThresholdKey([]KeyShare{epoch0[0], epoch0[1], epoch1[2]}, 3, 5); err == nil {
		t.Fatal("rebuild accepted mixed-epoch shares")
	}
	corrupt := []KeyShare{epoch0[0], epoch0[1], epoch0[2], epoch0[3]}
	corrupt[3].Share.Add(&corrupt[3].Share, &corrupt[0].Share)
	if _, err := RebuildThresholdKey(corrupt, 3, 5); err == nil {
		t.Fatal("rebuild accepted a corrupted extra share")
	}
	if _, err := RebuildThresholdKey(epoch0[:2], 3, 5); err == nil {
		t.Fatal("rebuild accepted fewer than t shares")
	}
}

// Combine must reject share batches containing any share tagged with a
// different epoch — even if the signature bytes would otherwise verify —
// so no batch path can launder a cross-epoch share.
func TestShareSignatureBatchRejectsMixedEpochs(t *testing.T) {
	tk, epoch0, err := ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	epoch1 := applyRefreshAll(t, epoch0, ref)
	msg := []byte("batch epoch guard")
	mixed := []SignatureShare{epoch0[0].SignShare(msg), epoch1[1].SignShare(msg)}
	if sig, _, err := tk.Combine(msg, mixed); sig != nil || err == nil {
		t.Fatal("old-key batch accepted a new-epoch share")
	}
	if sig, _, err := ref.NewKey.Combine(msg, mixed); sig != nil || err == nil {
		t.Fatal("new-key batch accepted an old-epoch share")
	}
	if _, _, err := ref.NewKey.Combine(msg, []SignatureShare{epoch1[0].SignShare(msg), epoch1[1].SignShare(msg)}); err != nil {
		t.Fatalf("same-epoch batch rejected: %v", err)
	}
}
