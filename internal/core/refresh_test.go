package core

import (
	"errors"
	"testing"

	"repro/internal/bls"
	"repro/internal/blsapp"
)

// TestRefreshCeremonyOverDeployment runs proactive share refreshes over
// the REAL deployment path — host proxy, in-enclave RPC server, app
// socket, sandboxed module — through the Deployment's own domain client,
// and checks the full epoch contract end to end: the old
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
		// Replaying the completed ceremony is an idempotent ack.
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
		if sig.Bytes() != sig0.Bytes() {
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
