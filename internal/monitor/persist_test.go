package monitor

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/gossip"
	"repro/internal/sandbox"
)

func openTestMonitor(t *testing.T, dir string, params audit.Params, snapEvery int) *Monitor {
	t.Helper()
	m, err := Open(dir, params, &OpenOptions{Shards: 4, SnapshotEvery: snapEvery, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMonitorRestartRoundTrip is the restart acceptance test: populate
// a persistent monitor via Submit/SubmitBatch, let a witness build a
// cosigned frontier against it, reopen from the same directory, and
// check the monitor IS the same log — same super-root, same tree-head
// key, proofs that still verify — and that the witness advances its
// frontier across the restart without an equivocation false-positive.
func TestMonitorRestartRoundTrip(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	dir := t.TempDir()

	mon := openTestMonitor(t, dir, f.params, 3) // snapshot mid-run
	idx0, _, err := mon.Submit(envelope(fw, "r0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range mon.SubmitBatch([]*audit.AttestedStatusEnvelope{
		envelope(fw, "r1"), envelope(fw, "r2"), envelope(fw, "r3"), envelope(fw, "r4"),
	}) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	blsPub1 := mon.BLSPublicKey()
	head1 := signedHead(t, mon)

	// A witness accepts the pre-restart head (trust on first use).
	wit, err := gossip.NewWitness(gossip.Config{Name: "w", Key: mustKey(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := wit.AddSource(gossip.Source{Name: "mon", Key: blsPub1}); err != nil {
		t.Fatal(err)
	}
	if res := wit.Ingest("mon", head1, nil); !res.Accepted || res.Proof != nil {
		t.Fatalf("pre-restart head not accepted: %+v", res)
	}

	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- restart ----
	mon2 := openTestMonitor(t, dir, f.params, 3)
	defer mon2.Close()
	info, ok := mon2.RecoveryInfo()
	if !ok || info.Leaves != 5 || !info.HasHead {
		t.Fatalf("recovery info = %+v ok=%v", info, ok)
	}
	if info.SnapshotSize == 0 {
		t.Fatal("no snapshot was taken before the restart")
	}

	// Identity: same tree-head key.
	if !blsPub1.Equal(mon2.BLSPublicKey()) {
		t.Fatal("BLS tree-head key changed across restart")
	}
	// Identical super-root, and the head signature still verifies under
	// the ORIGINAL public key.
	head2 := signedHead(t, mon2)
	if head2.Size != head1.Size || head2.Head != head1.Head {
		t.Fatalf("super-root changed across restart: %d/%x vs %d/%x", head1.Size, head1.Head, head2.Size, head2.Head)
	}
	if !aolog.VerifyHeadBLS(blsPub1, &head2) {
		t.Fatal("post-restart BLS head does not verify under the pre-restart key")
	}
	// Derived state survived.
	if n := mon2.Observations("d1"); n != 5 {
		t.Fatalf("observations after restart = %d, want 5", n)
	}
	if len(mon2.Alerts()) != 0 {
		t.Fatalf("honest timeline grew alerts across restart: %+v", mon2.Alerts())
	}
	// Inclusion proof of a pre-restart submission against the recovered
	// super-root.
	payload, incl, err := mon2.ProveInclusionAt(idx0, int(head2.Size))
	if err != nil {
		t.Fatal(err)
	}
	if !aolog.VerifyShardInclusion(payload, incl, head2.Head) {
		t.Fatal("inclusion proof failed after restart")
	}

	// Interleave a proactive share refresh on the observed domain: the
	// share moves to epoch 1 inside the sandbox, but the module digest,
	// version and update log are untouched, so monitors and witnesses —
	// and every frontier already cosigned — must be oblivious.
	stBefore := fw.Status()
	ref, err := bls.NewRefresh(f.tk)
	if err != nil {
		t.Fatal(err)
	}
	refReq, err := blsapp.RefreshRequestFor(ref, 0, f.dev)
	if err != nil {
		t.Fatal(err)
	}
	refResp, err := fw.Invoke(refReq)
	if err != nil {
		t.Fatal(err)
	}
	if ep, err := blsapp.DecodeRefreshAck(refResp); err != nil || ep != 1 {
		t.Fatalf("refresh ack: epoch %d, %v", ep, err)
	}
	if f.state.Epoch() != 1 {
		t.Fatalf("domain share at epoch %d after refresh", f.state.Epoch())
	}
	if stAfter := fw.Status(); stAfter.Version != stBefore.Version ||
		stAfter.CurrentDigest != stBefore.CurrentDigest || stAfter.LogLen != stBefore.LogLen {
		t.Fatal("share refresh changed the attested framework status (monitors would see a phantom update)")
	}

	// Grow the log post-restart (now with post-refresh attestations);
	// consistency must bridge the restart AND the refresh.
	for _, o := range mon2.SubmitBatch([]*audit.AttestedStatusEnvelope{
		envelope(fw, "r5"), envelope(fw, "r6"),
	}) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	if len(mon2.Alerts()) != 0 {
		t.Fatalf("share refresh raised monitor alerts: %+v", mon2.Alerts())
	}
	head3 := signedHead(t, mon2)
	cons, err := mon2.ProveConsistencyBetween(int(head1.Size), int(head3.Size))
	if err != nil {
		t.Fatal(err)
	}
	if !aolog.VerifyShardConsistency(head1.Head, head3.Head, cons) {
		t.Fatal("consistency across the restart failed")
	}
	// The witness advances its frontier over the restart boundary with
	// no equivocation false-positive.
	res := wit.Ingest("mon", head3, cons)
	if res.Proof != nil {
		t.Fatalf("restart produced an equivocation false-positive: %+v", res.Proof)
	}
	if !res.Accepted {
		t.Fatalf("witness did not advance across the restart: %+v", res)
	}
	if front, ok := wit.Frontier("mon"); !ok || front.Size != head3.Size {
		t.Fatalf("frontier = %+v ok=%v, want size %d", front, ok, head3.Size)
	}
}

// TestMonitorRestartWithoutCloseReplaysWAL crashes (no Close, so no
// final snapshot/checkpoint) and recovers everything from the WAL.
func TestMonitorRestartWithoutCloseReplaysWAL(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	dir := t.TempDir()
	mon := openTestMonitor(t, dir, f.params, -1) // snapshots disabled
	for i := 0; i < 4; i++ {
		if _, _, err := mon.Submit(envelope(fw, "c"+string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	head := signedHead(t, mon)
	// No Close: simulated crash.

	mon2 := openTestMonitor(t, dir, f.params, -1)
	defer mon2.Close()
	head2 := signedHead(t, mon2)
	if head2.Size != head.Size || head2.Head != head.Head {
		t.Fatal("crash recovery lost acknowledged submissions")
	}
	if n := mon2.Observations("d1"); n != 4 {
		t.Fatalf("observations after crash = %d, want 4", n)
	}
}

// TestMonitorRestartPreservesAlertsAndSlashing: misbehavior proofs and
// the slashing ledger are part of the recovered state; a replayed
// conviction is answered with the original log index.
func TestMonitorRestartPreservesAlertsAndSlashing(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	mon := openTestMonitor(t, dir, f.params, 2)

	// A rollback across clients produces a misbehavior alert (same
	// construction as TestRollbackAcrossClientsDetected).
	fwA := f.newFramework(t, blsapp.ModuleBytes())
	m2 := blsapp.Module()
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mb2 := m2.Encode()
	if err := fwA.Install(2, mb2, f.dev.SignUpdate(2, mb2)); err != nil {
		t.Fatal(err)
	}
	if _, proof, err := mon.Submit(envelope(fwA, "a")); err != nil || proof != nil {
		t.Fatalf("first view: %v %v", err, proof)
	}
	fwB := f.newFramework(t, blsapp.ModuleBytes()) // wiped & reinstalled v1
	_, proof, err := mon.Submit(envelope(fwB, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if proof == nil || proof.Kind != audit.MisbehaviorRollback {
		t.Fatalf("rollback not detected pre-restart: %+v", proof)
	}

	// A gossip conviction of a registered peer log.
	peerKey, peerPub, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.RegisterLogSource(peerPub); err != nil {
		t.Fatal(err)
	}
	kb := peerPub.Bytes()
	forkA := aolog.SignHeadBLS(peerKey, 9, aolog.Digest{1})
	forkB := aolog.SignHeadBLS(peerKey, 9, aolog.Digest{2})
	conviction := &gossip.EquivocationProof{Source: "peer", SourcePK: kb[:], A: forkA, B: forkB}
	slashIdx, err := mon.RecordLogEquivocation(conviction)
	if err != nil {
		t.Fatal(err)
	}
	alertsBefore := len(mon.Alerts())
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	mon2 := openTestMonitor(t, dir, f.params, 2)
	defer mon2.Close()
	alerts := mon2.Alerts()
	if len(alerts) != alertsBefore {
		t.Fatalf("alerts after restart = %d, want %d", len(alerts), alertsBefore)
	}
	found := false
	for _, a := range alerts {
		if a.Kind == proof.Kind && a.Domain == proof.Domain {
			found = true
		}
	}
	if !found {
		t.Fatalf("pre-restart %s alert lost", proof.Kind)
	}
	// Replaying the conviction must hit the recovered dedupe ledger:
	// same index, no new log entry. The accused key must also still be
	// registered (snapshot carries the log-source set).
	size := mon2.Len()
	idx2, err := mon2.RecordLogEquivocation(conviction)
	if err != nil {
		t.Fatal(err)
	}
	if idx2 != slashIdx {
		t.Fatalf("replayed conviction got index %d, want %d", idx2, slashIdx)
	}
	if mon2.Len() != size {
		t.Fatal("replayed conviction grew the recovered log")
	}
}

// TestMonitorRefusesTamperedDirectory: recovery must not serve a log
// that contradicts the last signed head (lost or modified data).
func TestMonitorRefusesTamperedDirectory(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	dir := t.TempDir()
	mon := openTestMonitor(t, dir, f.params, -1)
	for i := 0; i < 3; i++ {
		if _, _, err := mon.Submit(envelope(fw, "t"+string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	signedHead(t, mon) // persist a signed head covering all 3 leaves
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	// Wipe one shard's segments: the log comes back shorter than the
	// signed head and Open must refuse.
	if err := os.RemoveAll(filepath.Join(dir, "segments", "shard-001")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, f.params, &OpenOptions{Shards: 4, NoSync: true}); err == nil {
		t.Fatal("tampered directory served")
	}
}

// TestMonitorReopensParentFormatDirectory is the N-1 on-disk
// compatibility test. A directory as the previous version left it — an
// ed25519 key file beside keys/bls.key, and a head.json record saying
// "kind":"ed25519" — reopens under the same BLS identity and passes the
// same recovered-root-vs-last-signed-head check; the stale key file is
// ignored, not deleted; and a tampered leaf (valid framing, different
// bytes) still makes Open refuse.
func TestMonitorReopensParentFormatDirectory(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	dir := t.TempDir()
	mon := openTestMonitor(t, dir, f.params, -1)
	for i := 0; i < 3; i++ {
		if _, _, err := mon.Submit(envelope(fw, "p"+string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	pk := mon.BLSPublicKey()
	head := signedHead(t, mon)
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	edKey := filepath.Join(dir, "keys", "ed25519.key")
	if _, err := os.Stat(edKey); !os.IsNotExist(err) {
		t.Fatalf("a fresh directory holds %s (stat: %v); the monitor has one head key", edKey, err)
	}

	// Dress the directory as the parent commit wrote it.
	edSeed := bytes.Repeat([]byte{7}, 32)
	if err := os.WriteFile(edKey, edSeed, 0o600); err != nil {
		t.Fatal(err)
	}
	headPath := filepath.Join(dir, "head.json")
	raw, err := os.ReadFile(headPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec["kind"] = "ed25519"
	if raw, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(headPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	mon2 := openTestMonitor(t, dir, f.params, -1)
	if info, ok := mon2.RecoveryInfo(); !ok || info.Leaves != 3 || !info.HasHead || info.HeadSize != head.Size {
		t.Fatalf("recovery info = %+v ok=%v, want 3 leaves checked against the head at size %d", info, ok, head.Size)
	}
	if !pk.Equal(mon2.BLSPublicKey()) {
		t.Fatal("BLS tree-head key changed reopening a parent-format directory")
	}
	if head2 := signedHead(t, mon2); head2.Size != head.Size || head2.Head != head.Head || !bytes.Equal(head2.Signature, head.Signature) {
		t.Fatalf("head changed reopening a parent-format directory: %+v vs %+v", head2, head)
	}
	if got, err := os.ReadFile(edKey); err != nil || !bytes.Equal(got, edSeed) {
		t.Fatalf("the ed25519 key file must be left alone: %x, %v", got, err)
	}
	if err := mon2.Close(); err != nil {
		t.Fatal(err)
	}

	// Tamper with leaf 0 (shard 0, first record of its first segment):
	// flip one payload byte and re-seal the record's CRC32-C, so the store
	// hands the monitor a well-framed leaf the signed head never covered.
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "shard-000", "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment file for shard 0: %v %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.BigEndian.Uint32(seg[:4])) // u32 length, u8 kind, payload, u32 CRC over kind||payload
	seg[5+n/2] ^= 1
	binary.BigEndian.PutUint32(seg[5+n:], crc32.Checksum(seg[4:5+n], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, f.params, &OpenOptions{Shards: 4, SnapshotEvery: -1, NoSync: true}); err == nil ||
		!strings.Contains(err.Error(), "does not match the last signed head") {
		t.Fatalf("Open over a tampered leaf = %v, want a refusal naming the last signed head", err)
	}
}

func mustKey(t *testing.T) *bls.SecretKey {
	t.Helper()
	sk, _, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	return sk
}
