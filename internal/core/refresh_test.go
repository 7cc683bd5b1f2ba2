package core

import (
	"errors"
	"testing"

	"repro/internal/bls"
	"repro/internal/blsapp"
)

// TestRefreshCeremonyOverDeployment runs proactive share refreshes over
// the REAL deployment path — host proxy, in-enclave RPC server, app
// socket, sandboxed module — using the Deployment's InvokeAll ceremony
// primitive, and checks the full epoch contract end to end: the old
// epoch goes stale on every domain, the new epoch signs (singly and
// batched) under the unchanged group key, and a second ceremony chains.
func TestRefreshCeremonyOverDeployment(t *testing.T) {
	dep, tk, dev := deployBLS(t, false)
	msg := []byte("epoch contract over sockets")
	sig0, err := blsapp.ThresholdSign(dep, tk, msg)
	if err != nil {
		t.Fatal(err)
	}

	cur := tk
	for round := 1; round <= 2; round++ {
		ref, err := bls.NewRefresh(cur)
		if err != nil {
			t.Fatal(err)
		}
		if err := blsapp.RunRefreshCeremony(dep, ref, dev, blsapp.CeremonyDiagnostics{}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// The deployment satisfies AllInvoker, so the ceremony used
		// InvokeAll; replay must still be an idempotent ack.
		if err := blsapp.RunRefreshCeremony(dep, ref, dev, blsapp.CeremonyDiagnostics{}); err != nil {
			t.Fatalf("round %d replay: %v", round, err)
		}
		cur = ref.NewKey
		if cur.Epoch != uint64(round) {
			t.Fatalf("round %d: key at epoch %d", round, cur.Epoch)
		}

		sig, err := blsapp.ThresholdSign(dep, cur, msg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !sig.Equal(sig0) {
			t.Fatalf("round %d: refresh changed the signature bits", round)
		}
		sigs, err := blsapp.ThresholdSignBatch(dep, cur, [][]byte{msg, []byte("second")})
		if err != nil {
			t.Fatalf("round %d batch: %v", round, err)
		}
		for i, m := range [][]byte{msg, []byte("second")} {
			if !bls.Verify(&tk.GroupKey, m, sigs[i]) {
				t.Fatalf("round %d batch sig %d invalid under original group key", round, i)
			}
		}
	}

	// The original epoch-0 key is now stale everywhere, for both paths.
	var stale *blsapp.StaleEpochError
	if _, err := blsapp.ThresholdSign(dep, tk, msg); !errors.As(err, &stale) {
		t.Fatalf("epoch-0 sign after two refreshes: %v", err)
	}
	if stale.DomainEpoch != 2 || stale.WantEpoch != 0 {
		t.Fatalf("stale epochs: %+v", stale)
	}
	if _, err := blsapp.ThresholdSignBatch(dep, tk, [][]byte{msg}); !errors.As(err, &stale) {
		t.Fatalf("epoch-0 batch after two refreshes: %v", err)
	}
}

// TestInvokeAllDemandsEveryDomain: the ceremony primitive must fail —
// not partially succeed — when any domain is unreachable, and must
// reject ragged request lists.
func TestInvokeAllDemandsEveryDomain(t *testing.T) {
	dep, tk, dev := deployBLS(t, false)
	ref, err := bls.NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.InvokeAll([][]byte{[]byte("x")}, 0); err == nil {
		t.Fatal("ragged request list accepted")
	}
	dep.Domain(2).Close()
	if err := blsapp.RunRefreshCeremony(dep, ref, dev, blsapp.CeremonyDiagnostics{}); err == nil {
		t.Fatal("ceremony succeeded with an unreachable domain")
	}
	// The abort left mixed epochs (domains 0 and 1 moved before the
	// failure at 2). Signing still works — at the NEW epoch, where t=2
	// domains now live — and the epoch tags keep the mix out of any
	// combination: the old key yields a stale error, never a forgery.
	msg := []byte("signed during a torn ceremony")
	sig, err := blsapp.ThresholdSign(dep, ref.NewKey, msg)
	if err != nil {
		t.Fatalf("torn ceremony blocked new-epoch signing: %v", err)
	}
	if !bls.Verify(&tk.GroupKey, msg, sig) {
		t.Fatal("signature across a torn ceremony invalid")
	}
	var stale *blsapp.StaleEpochError
	if _, err := blsapp.ThresholdSign(dep, tk, msg); !errors.As(err, &stale) {
		t.Fatalf("old-epoch sign during torn ceremony: %v", err)
	}
}
