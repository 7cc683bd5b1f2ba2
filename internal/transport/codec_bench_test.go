package transport_test

import (
	"testing"

	"repro/internal/aolog"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/transport"
)

// BenchmarkReplyCodec is what the wire does to one hot proof reply — the
// newest leaf of an 8192-leaf log under the current signed head, as
// read_hot fetches it — on both ends, in each wire version: encode the
// body, wrap and frame it, unframe, unwrap, decode into a
// serve.ProofResponse. CI gates on the ratio between the two rows in
// one run (v2 at least 5x faster, at most a quarter of the bytes
// allocated), never on absolute times.
func BenchmarkReplyCodec(b *testing.B) {
	const leaves = 8192
	fx, err := loadtest.NewFixture(leaves)
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	reply, err := fx.Tier.Proof(&serve.ProofRequest{Index: leaves - 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, version := range []struct {
		name string
		v2   bool
	}{{"v1", false}, {"v2", true}} {
		b.Run(version.name, func(b *testing.B) {
			codec := transport.NewReplyCodec()
			var frameLen int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame, err := codec.Encode(reply, version.v2)
				if err != nil {
					b.Fatal(err)
				}
				var got serve.ProofResponse
				if err := codec.Decode(serve.KindProof, frame, &got); err != nil {
					b.Fatal(err)
				}
				if i == 0 && (got.Head == nil || !aolog.VerifyShardInclusion(got.Payload, got.Proof, got.Head.Head)) {
					b.Fatal("the decoded reply does not verify")
				}
				frameLen = len(frame)
			}
			b.ReportMetric(float64(frameLen), "frame-bytes")
		})
	}
}
