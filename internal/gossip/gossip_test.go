package gossip

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/aolog"
	"repro/internal/bls"
)

// sourceLog is a test log operator: a BLS identity over a sharded log.
type sourceLog struct {
	name string
	sk   *bls.SecretKey
	pk   *bls.PublicKey
	log  *aolog.ShardedLog
}

func newSourceLog(t *testing.T, name string, shards, entries int) *sourceLog {
	t.Helper()
	sk, pk, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	l, err := aolog.NewShardedLog(shards)
	if err != nil {
		t.Fatal(err)
	}
	s := &sourceLog{name: name, sk: sk, pk: pk, log: l}
	s.grow(entries)
	return s
}

func (s *sourceLog) grow(n int) {
	for i := 0; i < n; i++ {
		s.log.Append([]byte(fmt.Sprintf("%s-entry-%d", s.name, s.log.Len())))
	}
}

func (s *sourceLog) head() aolog.BLSSignedHead {
	return aolog.SignHeadBLS(s.sk, uint64(s.log.Len()), s.log.SuperRoot())
}

func (s *sourceLog) source() Source { return Source{Name: s.name, Key: s.pk} }

func newTestWitness(t *testing.T, name string, srcs []*sourceLog, others ...*Witness) *Witness {
	t.Helper()
	sk, _, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWitness(Config{Name: name, Key: sk})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		if err := w.AddSource(s.source()); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range others {
		if err := w.AddWitness(o.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := o.AddWitness(w.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWitnessCosignAndQuorum(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 7)
	head := src.head()

	w1 := newTestWitness(t, "w1", []*sourceLog{src})
	w2 := newTestWitness(t, "w2", []*sourceLog{src}, w1)
	w3 := newTestWitness(t, "w3", []*sourceLog{src}, w1, w2)

	for _, w := range []*Witness{w1, w2, w3} {
		res := w.Ingest("mon", head, nil)
		if !res.Accepted || res.Cosig == nil || res.Err != nil {
			t.Fatalf("%s did not cosign first-contact head: %+v", w.Name(), res)
		}
	}

	// One gossip exchange merges the other witnesses' cosignatures.
	w1.HandleGossip(&HeadsMessage{From: "w2", Heads: w2.FrontierHeads()})
	w1.HandleGossip(&HeadsMessage{From: "w3", Heads: w3.FrontierHeads()})
	ch, err := w1.CosignedHead("mon")
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Cosigs) != 3 {
		t.Fatalf("merged cosignatures = %d, want 3", len(ch.Cosigs))
	}

	witnessKeys := []*bls.PublicKey{w1.PublicKey(), w2.PublicKey(), w3.PublicKey()}
	for q := 1; q <= 3; q++ {
		if err := VerifyCosignedHead(src.pk, witnessKeys, q, ch); err != nil {
			t.Fatalf("quorum %d rejected: %v", q, err)
		}
	}
	if err := VerifyCosignedHead(src.pk, witnessKeys, 4, ch); err == nil {
		t.Fatal("quorum 4 of 3 accepted")
	}

	// A cosignature from a key outside the accepted set is ignored before
	// the quorum count, so it can neither help nor poison the batch.
	rogueSK, _, _ := bls.GenerateKey()
	roguePKB := rogueSK.PublicKey().Bytes()
	chRogue := *ch
	chRogue.Cosigs = append([]Cosignature{{Witness: roguePKB[:], Sig: ch.Cosigs[0].Sig}}, ch.Cosigs...)
	if err := VerifyCosignedHead(src.pk, witnessKeys, 3, &chRogue); err != nil {
		t.Fatalf("rogue cosignature poisoned the batch: %v", err)
	}
	if err := VerifyCosignedHead(src.pk, []*bls.PublicKey{rogueSK.PublicKey()}, 1, ch); err == nil {
		t.Fatal("quorum met with zero accepted cosigners")
	}

	// A tampered counted cosignature cannot satisfy a full quorum...
	chBad := *ch
	chBad.Cosigs = append([]Cosignature{}, ch.Cosigs...)
	chBad.Cosigs[0] = Cosignature{Witness: chBad.Cosigs[0].Witness, Sig: chBad.Cosigs[1].Sig}
	if err := VerifyCosignedHead(src.pk, witnessKeys, 3, &chBad); err == nil {
		t.Fatal("forged cosignature accepted")
	}
	// ...but it also cannot VETO a quorum the remaining valid
	// cosignatures still reach (per-signature attribution fallback).
	if err := VerifyCosignedHead(src.pk, witnessKeys, 2, &chBad); err != nil {
		t.Fatalf("poisoned cosignature vetoed a valid quorum: %v", err)
	}

	// Nor can forged signatures listed FIRST under honest keys displace
	// the genuine cosignatures that follow: each key counts if any of
	// its candidates verifies.
	chShadow := *ch
	chShadow.Cosigs = nil
	for i, co := range ch.Cosigs {
		// A decodable forgery per key: another witness's signature bytes.
		chShadow.Cosigs = append(chShadow.Cosigs,
			Cosignature{Witness: co.Witness, Sig: ch.Cosigs[(i+1)%len(ch.Cosigs)].Sig})
	}
	chShadow.Cosigs = append(chShadow.Cosigs, ch.Cosigs...)
	if err := VerifyCosignedHead(src.pk, witnessKeys, 3, &chShadow); err != nil {
		t.Fatalf("forged candidates displaced genuine cosignatures: %v", err)
	}

	// A head for the wrong source key is rejected before any pairing.
	other := newSourceLog(t, "other", 4, 7)
	if err := VerifyCosignedHead(other.pk, witnessKeys, 1, ch); err == nil {
		t.Fatal("cosigned head accepted under the wrong source key")
	}
}

func TestFrontierAdvanceRequiresConsistency(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 5)
	w := newTestWitness(t, "w", []*sourceLog{src})

	h5 := src.head()
	if res := w.Ingest("mon", h5, nil); !res.Accepted {
		t.Fatalf("first contact not accepted: %+v", res)
	}

	src.grow(4)
	h9 := src.head()
	// Without a consistency proof the head is evidence, not a frontier.
	res := w.Ingest("mon", h9, nil)
	if res.Accepted || !res.Recorded || res.Proof != nil {
		t.Fatalf("unanchored head outcome: %+v", res)
	}
	if front, _ := w.Frontier("mon"); front.Size != 5 {
		t.Fatalf("frontier moved without consistency: size %d", front.Size)
	}

	cons, err := src.log.ProveConsistencyBetween(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	res = w.Ingest("mon", h9, cons)
	if !res.Accepted || res.Cosig == nil {
		t.Fatalf("consistent head not cosigned: %+v", res)
	}
	if front, _ := w.Frontier("mon"); front.Size != 9 {
		t.Fatalf("frontier = %d, want 9", front.Size)
	}

	// A stale head the witness already cosigned is re-cosigned idempotently.
	res = w.Ingest("mon", h5, nil)
	if !res.Accepted {
		t.Fatalf("previously cosigned head not re-cosigned: %+v", res)
	}
}

func TestSameSizeForkConvicted(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 6)
	headA := src.head()

	// The fork: same identity, same size, different contents.
	forked, _ := aolog.NewShardedLog(4)
	for i := 0; i < 6; i++ {
		forked.Append([]byte(fmt.Sprintf("forked-%d", i)))
	}
	headB := aolog.SignHeadBLS(src.sk, uint64(forked.Len()), forked.SuperRoot())

	w := newTestWitness(t, "w", []*sourceLog{src})
	if res := w.Ingest("mon", headA, nil); !res.Accepted {
		t.Fatalf("view A rejected: %+v", res)
	}
	res := w.Ingest("mon", headB, nil)
	if res.Proof == nil {
		t.Fatal("same-size fork not convicted")
	}
	if res.Accepted {
		t.Fatal("forked head cosigned")
	}
	if err := VerifyEquivocationProof(res.Proof); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	if got := w.Proofs(); len(got) != 1 {
		t.Fatalf("proofs recorded = %d, want 1", len(got))
	}

	// Portability: the proof survives a JSON round trip and still
	// verifies with no context beyond its own bytes.
	blob, err := json.Marshal(res.Proof)
	if err != nil {
		t.Fatal(err)
	}
	var decoded EquivocationProof
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivocationProof(&decoded); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
}

func TestPrefixContradictionConvicted(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 6)
	headA := src.head() // honestly cosigned at size 6

	// The source forks: a different history (rewritten entry 2), grown
	// past the cosigned size, served with ITS OWN consistency proof.
	forked, _ := aolog.NewShardedLog(4)
	for i := 0; i < 9; i++ {
		entry := fmt.Sprintf("mon-entry-%d", i)
		if i == 2 {
			entry = "rewritten"
		}
		forked.Append([]byte(entry))
	}
	headB := aolog.SignHeadBLS(src.sk, uint64(forked.Len()), forked.SuperRoot())
	cons, err := forked.ProveConsistencyBetween(6, 9)
	if err != nil {
		t.Fatal(err)
	}

	w := newTestWitness(t, "w", []*sourceLog{src})
	if res := w.Ingest("mon", headA, nil); !res.Accepted {
		t.Fatalf("honest head rejected: %+v", res)
	}
	res := w.Ingest("mon", headB, cons)
	if res.Proof == nil {
		t.Fatal("prefix contradiction not convicted")
	}
	if res.Proof.Consistency == nil {
		t.Fatal("conviction lost the consistency evidence")
	}
	if err := VerifyEquivocationProof(res.Proof); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}

	// Round trip, then verify standalone.
	blob, _ := json.Marshal(res.Proof)
	var decoded EquivocationProof
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivocationProof(&decoded); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
}

func TestIngestRejectsGarbage(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 3)
	w := newTestWitness(t, "w", []*sourceLog{src})

	if res := w.Ingest("nope", src.head(), nil); res.Err == nil {
		t.Fatal("unknown source accepted")
	}

	head := src.head()
	head.Head[0] ^= 0xff // signature no longer covers this root
	res := w.Ingest("mon", head, nil)
	if res.Err == nil || res.Recorded {
		t.Fatalf("tampered head recorded: %+v", res)
	}

	head = src.head()
	head.Signature = []byte{1, 2, 3}
	if res := w.Ingest("mon", head, nil); res.Err == nil {
		t.Fatal("malformed signature accepted")
	}
}

func TestVerifyEquivocationProofRejectsNonEvidence(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 5)
	pkb := src.pk.Bytes()
	h5 := src.head()
	src.grow(3)
	h8 := src.head()
	cons, err := src.log.ProveConsistencyBetween(5, 8)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		proof EquivocationProof
	}{
		{"identical heads", EquivocationProof{SourcePK: pkb[:], A: h5, B: h5}},
		{"honest growth", EquivocationProof{SourcePK: pkb[:], A: h5, B: h8, Consistency: cons}},
		{"growth without evidence", EquivocationProof{SourcePK: pkb[:], A: h5, B: h8}},
		{"out of order", EquivocationProof{SourcePK: pkb[:], A: h8, B: h5}},
		{"bad key", EquivocationProof{SourcePK: []byte{9}, A: h5, B: h8}},
	}
	for _, tc := range cases {
		if err := VerifyEquivocationProof(&tc.proof); err == nil {
			t.Fatalf("%s accepted as equivocation", tc.name)
		}
	}

	// Unsigned fabrication: an accuser cannot convict without the
	// source's signatures.
	forged := EquivocationProof{SourcePK: pkb[:], A: h5, B: h5}
	forged.B.Head[0] ^= 1
	if err := VerifyEquivocationProof(&forged); err == nil {
		t.Fatal("fabricated head accepted")
	}
}

// TestGossipAcrossDifferentLabels: two witnesses configured different
// local names for the same monitor; gossip still unifies on the source
// key (GossipHead.SourcePK), so the split view is convicted anyway.
func TestGossipAcrossDifferentLabels(t *testing.T) {
	src := newSourceLog(t, "mon-as-w1-knows-it", 4, 5)
	w1 := newTestWitness(t, "w1", []*sourceLog{src})
	sk2, _, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWitness(Config{Name: "w2", Key: sk2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AddSource(Source{Name: "mon-as-w2-knows-it", Key: src.pk}); err != nil {
		t.Fatal(err)
	}
	w2.AddWitness(w1.PublicKey())
	w1.AddWitness(w2.PublicKey())

	// w1 sees the honest view; w2 sees a same-identity fork.
	forked, _ := aolog.NewShardedLog(4)
	for i := 0; i < 5; i++ {
		forked.Append([]byte("forked"))
	}
	forkedHead := aolog.SignHeadBLS(src.sk, uint64(forked.Len()), forked.SuperRoot())
	if res := w1.Ingest("mon-as-w1-knows-it", src.head(), nil); !res.Accepted {
		t.Fatalf("w1 rejected its view: %+v", res)
	}
	if res := w2.Ingest("mon-as-w2-knows-it", forkedHead, nil); !res.Accepted {
		t.Fatalf("w2 rejected its view: %+v", res)
	}

	// One frontier exchange — despite the differing labels, w2 resolves
	// w1's head by key and convicts the source.
	resp := w2.HandleGossip(&HeadsMessage{From: "w1", Heads: w1.FrontierHeads()})
	if len(resp.Proofs) == 0 {
		t.Fatal("label mismatch prevented split-view conviction")
	}
	if err := VerifyEquivocationProof(&resp.Proofs[0]); err != nil {
		t.Fatalf("conviction invalid: %v", err)
	}
}

// TestFingerprintCanonical: the same-size conviction with A and B
// swapped must dedupe to the same fingerprint (replay guard on the
// monitor's slashing ledger).
func TestFingerprintCanonical(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 4)
	hA := src.head()
	forked, _ := aolog.NewShardedLog(4)
	for i := 0; i < 4; i++ {
		forked.Append([]byte("forked"))
	}
	hB := aolog.SignHeadBLS(src.sk, uint64(forked.Len()), forked.SuperRoot())
	pkb := src.pk.Bytes()
	p1 := EquivocationProof{Source: "x", SourcePK: pkb[:], A: hA, B: hB}
	p2 := EquivocationProof{Source: "y", SourcePK: pkb[:], A: hB, B: hA}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("swapped same-size proof has a different fingerprint")
	}
	if VerifyEquivocationProof(&p1) != nil || VerifyEquivocationProof(&p2) != nil {
		t.Fatal("both orderings should verify")
	}
}

func TestIngestBatchMixedOutcomes(t *testing.T) {
	srcA := newSourceLog(t, "a", 4, 3)
	srcB := newSourceLog(t, "b", 2, 4)
	w := newTestWitness(t, "w", []*sourceLog{srcA, srcB})

	bad := srcB.head()
	bad.Head[0] ^= 0x55
	out := w.IngestBatch([]GossipHead{
		{Source: "a", Head: srcA.head()},
		{Source: "b", Head: bad},
		{Source: "b", Head: srcB.head()},
		{Source: "unknown", Head: srcA.head()},
	})
	if !out[0].Accepted || out[0].Err != nil {
		t.Fatalf("honest head a: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("tampered head b slipped through the batch")
	}
	if !out[2].Accepted {
		t.Fatalf("honest head b: %+v", out[2])
	}
	if out[3].Err == nil {
		t.Fatal("unknown source accepted in batch")
	}
}

// CosignedHead returns the witness's cosigned frontier head for a source,
// with every accumulated cosignature.
func (w *Witness) CosignedHead(source string) (*CosignedHead, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.sources[source]
	if !ok {
		return nil, fmt.Errorf("gossip: unknown source %q", source)
	}
	if !st.hasFrontier {
		return nil, fmt.Errorf("gossip: no frontier yet for source %q", source)
	}
	head := st.heads[st.frontier]
	ch := &CosignedHead{
		Source:   st.name,
		SourcePK: append([]byte{}, st.pkb...),
		Head:     head,
	}
	for _, co := range st.cosigs[st.frontier] {
		ch.Cosigs = append(ch.Cosigs, co)
	}
	return ch, nil
}
