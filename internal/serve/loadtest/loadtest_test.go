package loadtest

import (
	"testing"

	"repro/internal/aolog"
	"repro/internal/serve"
)

// TestFixtureProofVerifies: the fixture is the stack the daemons run, so
// what its tier serves must check out the way a client checks a daemon —
// the head under the monitor's BLS key, the inclusion proof under that
// head — on a first (uncached) and a repeated (cached) request.
func TestFixtureProofVerifies(t *testing.T) {
	const leaves, index = 64, 17
	f, err := NewFixture(leaves)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Mon.Len(); got != leaves {
		t.Fatalf("fixture log holds %d leaves, want %d", got, leaves)
	}
	for _, pass := range []string{"fresh", "cached"} {
		resp, err := f.Tier.Proof(&serve.ProofRequest{Index: index})
		if err != nil {
			t.Fatalf("%s proof: %v", pass, err)
		}
		if resp.Head == nil || int(resp.Head.Size) != leaves || !aolog.VerifyHeadBLS(f.Mon.BLSPublicKey(), resp.Head) {
			t.Fatalf("%s proof: head %+v does not verify at size %d under the monitor's key", pass, resp.Head, leaves)
		}
		if resp.Proof == nil || resp.Proof.GlobalIndex != index || resp.Proof.TreeSize != leaves {
			t.Fatalf("%s proof: reply is not for (%d,%d): %+v", pass, index, leaves, resp.Proof)
		}
		if !aolog.VerifyShardInclusion(resp.Payload, resp.Proof, resp.Head.Head) {
			t.Fatalf("%s proof: inclusion proof does not verify against the signed head", pass)
		}
	}
}
