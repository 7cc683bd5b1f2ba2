package gossip

import (
	"fmt"
	"testing"

	"repro/internal/aolog"
	"repro/internal/bls"
)

// BenchmarkWitnessIngest measures a witness ingesting a 32-head gossip
// frame (32 distinct sources): one bls.VerifyBatch multi-pairing for the
// whole frame plus the frontier state machine — the per-round cost of one
// witness at fan-in 32.
func BenchmarkWitnessIngest(b *testing.B) {
	const sources = 32
	var srcs []Source
	frame := make([]GossipHead, sources)
	for i := 0; i < sources; i++ {
		sk, pk, err := bls.GenerateKey()
		if err != nil {
			b.Fatal(err)
		}
		l, _ := aolog.NewShardedLog(4)
		for j := 0; j < 8; j++ {
			l.Append([]byte(fmt.Sprintf("src%d-entry%d", i, j)))
		}
		name := fmt.Sprintf("src%d", i)
		srcs = append(srcs, Source{Name: name, Key: pk})
		frame[i] = GossipHead{
			Source: name,
			Head:   aolog.SignHeadBLS(sk, uint64(l.Len()), l.SuperRoot()),
		}
	}
	wk, _, err := bls.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWitness(Config{Name: "bench", Key: wk})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range srcs {
			if err := w.AddSource(s); err != nil {
				b.Fatal(err)
			}
		}
		out := w.IngestBatch(frame)
		for j := range out {
			if !out[j].Accepted {
				b.Fatalf("head %d not accepted: %+v", j, out[j])
			}
		}
	}
}

// BenchmarkQuorumVerify measures what an audit client pays to accept one
// quorum-cosigned head: the source signature plus 8 witness cosignatures
// in ONE batched pairing check.
func BenchmarkQuorumVerify(b *testing.B) {
	const witnesses = 8
	srcSK, srcPK, err := bls.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	l, _ := aolog.NewShardedLog(4)
	for j := 0; j < 16; j++ {
		l.Append([]byte(fmt.Sprintf("entry%d", j)))
	}
	head := aolog.SignHeadBLS(srcSK, uint64(l.Len()), l.SuperRoot())
	spkb := srcPK.Bytes()

	ch := &CosignedHead{Source: "mon", SourcePK: spkb[:], Head: head}
	var keys []*bls.PublicKey
	msg := CosignMessage(spkb[:], head.Size, head.Head)
	for i := 0; i < witnesses; i++ {
		wsk, wpk, err := bls.GenerateKey()
		if err != nil {
			b.Fatal(err)
		}
		keys = append(keys, wpk)
		sig := wsk.Sign(msg)
		sb := sig.Bytes()
		kb := wpk.Bytes()
		ch.Cosigs = append(ch.Cosigs, Cosignature{Witness: kb[:], Sig: sb[:]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyCosignedHead(srcPK, keys, witnesses, ch); err != nil {
			b.Fatal(err)
		}
	}
}
