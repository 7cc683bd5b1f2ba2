package gossip_test

import (
	"encoding/json"
	"fmt"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/gossip"
)

// Example walks the witness lifecycle end to end: a log source signs tree
// heads, two witnesses cosign the verified frontier, a client accepts the
// head at quorum with one batched pairing check — and when the source
// forks, the witness emits a portable equivocation proof that verifies
// offline from its bytes alone.
func Example() {
	// The log source (a monitor): a BLS identity over a sharded log.
	srcSK, srcPK, err := bls.GenerateKey()
	if err != nil {
		panic(err)
	}
	log, _ := aolog.NewShardedLog(4)
	for i := 0; i < 6; i++ {
		log.Append([]byte(fmt.Sprintf("observation-%d", i)))
	}
	head := aolog.SignHeadBLS(srcSK, uint64(log.Len()), log.SuperRoot())

	// Two witnesses that accept each other's cosignatures.
	newWitness := func(name string, peers ...*gossip.Witness) *gossip.Witness {
		sk, _, err := bls.GenerateKey()
		if err != nil {
			panic(err)
		}
		w, err := gossip.NewWitness(gossip.Config{Name: name, Key: sk})
		if err != nil {
			panic(err)
		}
		if err := w.AddSource(gossip.Source{Name: "mon", Key: srcPK}); err != nil {
			panic(err)
		}
		for _, p := range peers {
			w.AddWitness(p.PublicKey())
			p.AddWitness(w.PublicKey())
		}
		return w
	}
	w1 := newWitness("w1")
	w2 := newWitness("w2", w1)

	// Both witnesses verify and countersign the head, then exchange
	// frontiers (what auditord does every round over transport).
	w1.Ingest("mon", head, nil)
	w2.Ingest("mon", head, nil)
	w1.HandleGossip(&gossip.HeadsMessage{From: "w2", Heads: w2.FrontierHeads()})

	// A client accepts the frontier only at quorum 2 — the source
	// signature and both cosignatures verified in ONE bls.VerifyBatch.
	ch, err := w1.CosignedHead("mon")
	if err != nil {
		panic(err)
	}
	keys := []*bls.PublicKey{w1.PublicKey(), w2.PublicKey()}
	fmt.Println("quorum accepted:", gossip.VerifyCosignedHead(srcPK, keys, 2, ch) == nil)

	// The source forks: same identity, same size, different contents.
	forked, _ := aolog.NewShardedLog(4)
	for i := 0; i < 6; i++ {
		forked.Append([]byte("rewritten"))
	}
	forkedHead := aolog.SignHeadBLS(srcSK, uint64(forked.Len()), forked.SuperRoot())
	res := w1.Ingest("mon", forkedHead, nil)
	fmt.Println("fork convicted:", res.Proof != nil)

	// The proof is portable: serialize, ship anywhere, verify offline.
	blob, _ := json.Marshal(res.Proof)
	var proof gossip.EquivocationProof
	json.Unmarshal(blob, &proof)
	fmt.Println("proof verifies offline:", gossip.VerifyEquivocationProof(&proof) == nil)

	// Output:
	// quorum accepted: true
	// fork convicted: true
	// proof verifies offline: true
}
