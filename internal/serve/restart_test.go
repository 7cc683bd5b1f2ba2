package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aolog"
	"repro/internal/monitor"
)

// TestCacheAcrossRestart is the snapshot+restart correctness satellite:
// a tier rebuilt over a monitor recovered via monitor.Open must serve
// proofs byte-for-byte identical to the pre-restart cached ones (the
// cache holds only immutable facts, so a cold cache over the same log
// reproduces them exactly), and consistency must bridge the restart.
func TestCacheAcrossRestart(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()

	mon, err := monitor.Open(dir, f.params, &monitor.OpenOptions{Shards: 4, SnapshotEvery: 3, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	f.mon = mon
	f.append(t, 5)

	tier := f.attach(t, Options{})
	waitHeadSize(t, tier, 5)
	before := make([][]byte, 5)
	for i := 0; i < 5; i++ {
		resp, err := tier.Proof(&ProofRequest{Index: i, Size: 5})
		if err != nil {
			t.Fatal(err)
		}
		before[i] = mustJSON(t, resp)
	}
	head5, err := tier.HeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	tier.Close()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- restart ----
	mon2, err := monitor.Open(dir, f.params, &monitor.OpenOptions{Shards: 4, SnapshotEvery: 3, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	f.mon = mon2
	tier2 := f.attach(t, Options{})
	waitHeadSize(t, tier2, 5)
	for i := 0; i < 5; i++ {
		resp, err := tier2.Proof(&ProofRequest{Index: i, Size: 5})
		if err != nil {
			t.Fatal(err)
		}
		if string(mustJSON(t, resp)) != string(before[i]) {
			t.Fatalf("proof %d diverged across restart", i)
		}
	}

	// Grow post-restart; consistency served by the recovered tier must
	// bridge the restart against the PRE-restart head.
	f.append(t, 3)
	head8 := waitHeadSize(t, tier2, 8)
	cons, err := tier2.Consistency(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !aolog.VerifyShardConsistency(head5.Head, head8.Head, cons) {
		t.Fatal("consistency across restart failed")
	}
}

// TestRestartFailsClosedOnTamperedLog: when recovery refuses the log
// (storage rolled back below the last signed head), no serving tier can
// come up at all, and proofs minted against the refused head fail
// client-side verification under every head the surviving honest state
// could produce — auditing clients fail closed rather than accept a
// cache serving a contradicted head.
func TestRestartFailsClosedOnTamperedLog(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()

	mon, err := monitor.Open(dir, f.params, &monitor.OpenOptions{Shards: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	f.mon = mon
	f.append(t, 3)
	tier := f.attach(t, Options{})
	waitHeadSize(t, tier, 3)
	resp, err := tier.Proof(&ProofRequest{Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Head == nil || !aolog.VerifyShardInclusion(resp.Payload, resp.Proof, resp.Head.Head) {
		t.Fatal("sanity: pre-tamper proof invalid")
	}
	tier.Close()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	// Roll the log back behind the signed head: wipe one shard's
	// segments. Recovery must refuse — there is no monitor to attach a
	// tier to, so the cache cannot come back up over contradicted state.
	if err := os.RemoveAll(filepath.Join(dir, "segments", "shard-001")); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.Open(dir, f.params, &monitor.OpenOptions{Shards: 4, NoSync: true}); err == nil {
		t.Fatal("tampered directory recovered; tier would serve a contradicted head")
	}

	// Client side of fail-closed: the proof minted against the refused
	// head does not verify under any OTHER head (e.g. a shorter honest
	// log an attacker might stand up in its place).
	short, err := aolog.NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	short.Append([]byte("a"))
	short.Append([]byte("b"))
	if aolog.VerifyShardInclusion(resp.Payload, resp.Proof, short.SuperRoot()) {
		t.Fatal("proof spanning the refused head verified against a substitute head")
	}
}
