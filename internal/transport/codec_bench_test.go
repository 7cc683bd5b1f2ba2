package transport_test

import (
	"encoding/json"
	"testing"

	"repro/internal/aolog"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/transport"
)

// BenchmarkReplyCodec is what the wire does to one hot proof reply — the
// newest leaf of an 8192-leaf log under the current signed head, as
// read_hot fetches it — on both ends: encode the body, wrap and frame
// it, unframe, unwrap, decode into a serve.ProofResponse. The v2 row is
// the transport's path; the v1 row is the reference it replaced, a JSON
// body in a JSON envelope (ReplyCodec.EncodeJSON), which no peer speaks
// any more. CI gates on the ratio between the two rows in one run (v2
// at least 5x faster, at most a quarter of the bytes allocated), never
// on absolute times.
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
	codec := transport.NewReplyCodec()
	for _, version := range []struct {
		name   string
		encode func(any) ([]byte, error)
		decode func([]byte, any) error
	}{
		{"v1", codec.EncodeJSON, codec.DecodeJSON},
		{"v2", codec.Encode, func(frame []byte, out any) error { return codec.Decode(serve.KindProof, frame, out) }},
	} {
		b.Run(version.name, func(b *testing.B) {
			var frameLen int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame, err := version.encode(reply)
				if err != nil {
					b.Fatal(err)
				}
				var got serve.ProofResponse
				if err := version.decode(frame, &got); err != nil {
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

// BenchmarkRequestCodec is what the wire does to the request bodies of
// one read_cold batch — a proof at an old size and the consistency proof
// from that size, over 10^7 keys — on both ends: the client's encode,
// appended to a buffer it reuses, and the handler's DecodeBody into the
// request type. The binary row is the transport's path; the json row is
// the reference it replaced, json.Marshal of the In, which DecodeBody
// still reads. The request values are allocated once: where a handler
// keeps its own is its business. CI gates on the ratio between the rows
// in one run (binary at least 5x faster) and on the binary row
// allocating nothing, never on absolute times.
func BenchmarkRequestCodec(b *testing.B) {
	proofIn := serve.ProofRequest{Index: 1_234_567, Size: 4_567_890}
	consIn := serve.ConsistencyRequest{OldSize: 4_567_890, NewSize: 9_876_543}
	ins := []any{proofIn, consIn}
	for _, form := range []struct {
		name   string
		append func([]byte, any) ([]byte, error)
	}{
		{"json", func(b []byte, in any) ([]byte, error) {
			js, err := json.Marshal(in)
			return append(b, js...), err
		}},
		{"binary", transport.AppendRequestBody},
	} {
		b.Run(form.name, func(b *testing.B) {
			var proof serve.ProofRequest
			var cons serve.ConsistencyRequest
			outs := []any{&proof, &cons}
			var body []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, in := range ins {
					var err error
					if body, err = form.append(body[:0], in); err != nil {
						b.Fatal(err)
					}
					if err := transport.DecodeBody(body, outs[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
			if proof != proofIn || cons != consIn {
				b.Fatalf("decoded %+v and %+v", proof, cons)
			}
		})
	}
}
