package gossip

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aolog"
)

// openWitness opens the persistent witness in dir and then adds its
// sources, as auditord does.
func openWitness(t *testing.T, dir string, srcs ...*sourceLog) (*Witness, *WitnessRecovery) {
	t.Helper()
	w, rec, err := OpenWitness(dir, Config{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if err := w.AddSource(src.source()); err != nil {
			t.Fatal(err)
		}
	}
	return w, rec
}

// TestWitnessRestartKeepsIdentityAndFrontier: a persistent witness
// reopened from its directory has the same cosigning key, the same
// cosigned frontier, and advances over fresh heads with a consistency
// proof anchored at the PRE-restart frontier — no re-TOFU window.
func TestWitnessRestartKeepsIdentityAndFrontier(t *testing.T) {
	dir := t.TempDir()
	src := newSourceLog(t, "mon", 4, 5)

	w1, rec := openWitness(t, dir, src)
	if rec.Heads != 0 || rec.Proofs != 0 {
		t.Fatalf("fresh witness recovered state: %+v", rec)
	}
	pk1 := w1.PublicKey()
	head5 := src.head()
	res := w1.Ingest("mon", head5, nil)
	if !res.Accepted {
		t.Fatalf("first head not accepted: %+v", res)
	}
	cosig1 := *res.Cosig
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- restart ----
	w2, rec2, err := OpenWitness(dir, Config{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !pk1.Equal(w2.PublicKey()) {
		t.Fatal("cosigning identity changed across restart")
	}
	if rec2.Heads != 1 || rec2.Cosigs != 1 {
		t.Fatalf("recovery stats = %+v, want 1 head + 1 cosig parked", rec2)
	}
	// The source arrives after open (as auditord does): parked evidence
	// must apply.
	if err := w2.AddSource(src.source()); err != nil {
		t.Fatal(err)
	}
	front, ok := w2.Frontier("mon")
	if !ok || front.Size != 5 || front.Head != head5.Head {
		t.Fatalf("frontier not restored: %+v ok=%v", front, ok)
	}
	// The pre-restart cosignature is still in the evidence base.
	ch, err := w2.CosignedHead("mon")
	if err != nil {
		t.Fatal(err)
	}
	foundCosig := false
	for _, co := range ch.Cosigs {
		if string(co.Witness) == string(cosig1.Witness) && string(co.Sig) == string(cosig1.Sig) {
			foundCosig = true
		}
	}
	if !foundCosig {
		t.Fatal("pre-restart cosignature lost")
	}

	// Advance: consistency proof anchored at the pre-restart frontier.
	src.grow(4)
	head9 := src.head()
	cons, err := src.log.ProveConsistencyBetween(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	res = w2.Ingest("mon", head9, cons)
	if res.Proof != nil {
		t.Fatalf("restart caused an equivocation false-positive: %+v", res.Proof)
	}
	if !res.Accepted {
		t.Fatalf("frontier did not advance after restart: %+v", res)
	}
}

// TestWitnessRestartKeepsProofs: a conviction survives the restart and
// still deduplicates.
func TestWitnessRestartKeepsProofs(t *testing.T) {
	dir := t.TempDir()
	src := newSourceLog(t, "mon", 2, 3)
	w1, _ := openWitness(t, dir, src)
	if res := w1.Ingest("mon", src.head(), nil); !res.Accepted {
		t.Fatalf("head not accepted: %+v", res)
	}
	// Same size, different root: same-size fork.
	forged := aolog.SignHeadBLS(src.sk, uint64(src.log.Len()), aolog.Digest{0xee})
	res := w1.Ingest("mon", forged, nil)
	if res.Proof == nil {
		t.Fatal("fork not convicted")
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec := openWitness(t, dir, src)
	defer w2.Close()
	if rec.Proofs != 1 {
		t.Fatalf("recovered %d proofs, want 1", rec.Proofs)
	}
	proofs := w2.Proofs()
	if len(proofs) != 1 {
		t.Fatalf("witness holds %d proofs, want 1", len(proofs))
	}
	if err := VerifyEquivocationProof(&proofs[0]); err != nil {
		t.Fatalf("recovered proof no longer verifies: %v", err)
	}
	// Re-adding the same proof must dedupe against the recovered set.
	if err := w2.AddProof(&proofs[0]); err != nil {
		t.Fatal(err)
	}
	if len(w2.Proofs()) != 1 {
		t.Fatal("recovered proof set did not deduplicate")
	}
}

// TestWitnessJournalTornTailTolerated: a crash mid-append must not
// brick the witness — the torn record is dropped and the journal
// reopens.
func TestWitnessJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	src := newSourceLog(t, "mon", 2, 2)
	w1, _ := openWitness(t, dir, src)
	w1.Ingest("mon", src.head(), nil)
	src.grow(1)
	cons, err := src.log.ProveConsistencyBetween(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	w1.Ingest("mon", src.head(), cons)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	jp := filepath.Join(dir, "witness.journal")
	fi, err := os.Stat(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jp, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	w2, rec, err := OpenWitness(dir, Config{Name: "w"})
	if err != nil {
		t.Fatalf("torn journal tail bricked the witness: %v", err)
	}
	defer w2.Close()
	if err := w2.AddSource(src.source()); err != nil {
		t.Fatal(err)
	}
	// The first frontier (size 2) must at minimum have survived.
	front, ok := w2.Frontier("mon")
	if !ok || front.Size < 2 {
		t.Fatalf("frontier after torn tail = %+v ok=%v", front, ok)
	}
	_ = rec
}
