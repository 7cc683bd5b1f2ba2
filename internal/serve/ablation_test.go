package serve_test

import (
	"testing"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
)

var ablationSink any

// BenchmarkProofAblation is DESIGN.md §9's ablation: what one proof
// request over the 128 newest leaves of a 2048-leaf log costs the
// monitor through the tier (cache, single flight, head signed once per
// size) against the seed's path, a fresh proof walk per request with
// and without a fresh head signature. In-process and single-goroutine:
// it sizes the tier's share of a request, not a serving rate — that is
// bench/'s read_hot, where this figure is the serve.proof_hit_us row.
func BenchmarkProofAblation(b *testing.B) {
	fx, err := loadtest.NewFixture(2048)
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	size := fx.Mon.Len()
	hot := func(i int) int { return size - 1 - i%128 }
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := fx.Tier.Proof(&serve.ProofRequest{Index: hot(i)})
			if err != nil {
				b.Fatal(err)
			}
			ablationSink = resp
		}
	})
	b.Run("fresh-proof", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, proof, err := fx.Mon.ProveInclusionAt(hot(i), size)
			if err != nil {
				b.Fatal(err)
			}
			ablationSink = proof
		}
	})
	// The monitor hands out the head it signed at this size, so the
	// seed's signature per request is paid here with a key of its own.
	head, err := fx.Mon.TreeHeadBLS()
	if err != nil {
		b.Fatal(err)
	}
	sk, _, err := bls.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh-proof+head-sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			head := aolog.SignHeadBLS(sk, head.Size, head.Head)
			_, proof, err := fx.Mon.ProveInclusionAt(hot(i), size)
			if err != nil {
				b.Fatal(err)
			}
			ablationSink = [2]any{head, proof}
		}
	})
}
