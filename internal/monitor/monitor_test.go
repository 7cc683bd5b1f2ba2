package monitor

import (
	"encoding/json"
	"testing"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

// fixture builds an enclave-backed framework whose attested statuses can
// be fed to the monitor, plus matching params. The threshold key and
// share state of the most recent newFramework call are kept so tests
// can interleave a proactive share refresh with monitor traffic.
type fixture struct {
	dev     *framework.Developer
	enclave *tee.Enclave
	params  audit.Params
	mon     *Monitor

	tk    *bls.ThresholdKey
	state *blsapp.ShareState
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	v, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := v.Provision("host", framework.Measure(dev.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	params := audit.Params{
		Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []audit.DomainInfo{{Name: "d1", HasTEE: true}},
	}
	return &fixture{dev: dev, enclave: enclave, params: params, mon: New(params, mustKey(t))}
}

// signedHead signs m's current head, failing the test if it cannot.
func signedHead(t *testing.T, m *Monitor) aolog.BLSSignedHead {
	t.Helper()
	h, err := m.TreeHeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (f *fixture) newFramework(t *testing.T, moduleBytes []byte) *framework.Framework {
	t.Helper()
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f.tk = tk
	f.state = blsapp.NewShareStateWithKey(shares[0], tk, f.dev.PublicKey())
	fw, err := framework.New(f.dev.PublicKey(), f.enclave, blsapp.Hosts(f.state))
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Install(1, moduleBytes, f.dev.SignUpdate(1, moduleBytes)); err != nil {
		t.Fatal(err)
	}
	return fw
}

func envelope(fw *framework.Framework, nonce string) *audit.AttestedStatusEnvelope {
	as := fw.AttestedStatus([]byte(nonce))
	return &audit.AttestedStatusEnvelope{
		Nonce: []byte(nonce),
		Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
	}
}

func TestHonestTimelineNoAlerts(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	for i := 0; i < 3; i++ {
		idx, proof, err := f.mon.Submit(envelope(fw, "n"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		if proof != nil {
			t.Fatalf("honest submission %d flagged: %s", i, proof.Kind)
		}
		if idx != i {
			t.Fatalf("log index %d, want %d", idx, i)
		}
	}
	if len(f.mon.Alerts()) != 0 {
		t.Fatal("alerts for honest timeline")
	}
	if f.mon.Observations("d1") != 3 {
		t.Fatal("observation count wrong")
	}
}

func TestSplitViewDetected(t *testing.T) {
	// Two clients see two different framework instances on the same
	// enclave (a split view). Individually each view verifies; the
	// monitor's gossip catches the contradiction.
	f := newFixture(t)
	fwA := f.newFramework(t, blsapp.ModuleBytes())
	mB := blsapp.Module()
	mB.Functions[0].Code = append(mB.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	fwB := f.newFramework(t, mB.Encode())

	if _, proof, err := f.mon.Submit(envelope(fwA, "clientA")); err != nil || proof != nil {
		t.Fatalf("first view rejected: %v %v", err, proof)
	}
	_, proof, err := f.mon.Submit(envelope(fwB, "clientB"))
	if err != nil {
		t.Fatal(err)
	}
	if proof == nil {
		t.Fatal("split view not detected")
	}
	if proof.Kind != audit.MisbehaviorEquivocation {
		t.Fatalf("kind = %s, want equivocation", proof.Kind)
	}
	// The emitted proof is publicly verifiable.
	if err := audit.VerifyMisbehavior(&f.params, proof); err != nil {
		t.Fatalf("monitor proof rejected: %v", err)
	}
	if len(f.mon.Alerts()) != 1 {
		t.Fatal("alert not recorded")
	}
}

func TestRollbackAcrossClientsDetected(t *testing.T) {
	f := newFixture(t)
	fw1 := f.newFramework(t, blsapp.ModuleBytes())
	m2 := blsapp.Module()
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mb2 := m2.Encode()
	if err := fw1.Install(2, mb2, f.dev.SignUpdate(2, mb2)); err != nil {
		t.Fatal(err)
	}
	if _, proof, err := f.mon.Submit(envelope(fw1, "before")); err != nil || proof != nil {
		t.Fatalf("pre-rollback submission flagged: %v %v", err, proof)
	}
	// Operator wipes and reinstalls v1 (counter keeps advancing).
	fw2 := f.newFramework(t, blsapp.ModuleBytes())
	_, proof, err := f.mon.Submit(envelope(fw2, "after"))
	if err != nil {
		t.Fatal(err)
	}
	if proof == nil || proof.Kind != audit.MisbehaviorRollback {
		t.Fatalf("rollback not detected: %+v", proof)
	}
	if err := audit.VerifyMisbehavior(&f.params, proof); err != nil {
		t.Fatalf("rollback proof rejected: %v", err)
	}
}

func TestGarbageSubmissionRejected(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	env := envelope(fw, "n")
	env.Resp.Status.Version++ // breaks the quote binding
	if _, _, err := f.mon.Submit(env); err == nil {
		t.Fatal("tampered envelope accepted")
	}
	if f.mon.Observations("d1") != 0 {
		t.Fatal("garbage recorded")
	}
}

func TestWrongMeasurementReported(t *testing.T) {
	// An impostor enclave from the same pinned vendor attesting to a
	// different measurement: the monitor accepts the submission (the
	// quote is genuine) and emits a wrong-measurement proof.
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	imp, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	v, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	params := audit.Params{
		Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()), // published
		Domains:     []audit.DomainInfo{{Name: "d1", HasTEE: true}},
	}
	mon := New(params, mustKey(t))

	impEnclave, err := v.Provision("host", framework.Measure(imp.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := framework.New(imp.PublicKey(), impEnclave, blsapp.Hosts(blsapp.NewShareState(shares[0])))
	if err != nil {
		t.Fatal(err)
	}
	mb := blsapp.ModuleBytes()
	if err := fw.Install(1, mb, imp.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	as := fw.AttestedStatus([]byte("n"))
	env := &audit.AttestedStatusEnvelope{
		Nonce: []byte("n"),
		Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
	}
	_, proof, err := mon.Submit(env)
	if err != nil {
		t.Fatal(err)
	}
	if proof == nil || proof.Kind != audit.MisbehaviorWrongMeasurement {
		t.Fatalf("wrong measurement not reported: %+v", proof)
	}
	if err := audit.VerifyMisbehavior(&params, proof); err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
}

func TestMonitorPublicLogAuditable(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	var idxs []int
	for i := 0; i < 5; i++ {
		idx, _, err := f.mon.Submit(envelope(fw, "n"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	head1 := signedHead(t, f.mon)
	if !aolog.VerifyHeadBLS(f.mon.BLSPublicKey(), &head1) {
		t.Fatal("tree head signature invalid")
	}
	// Inclusion of an early submission in the current tree.
	payload, proof, err := f.mon.ProveInclusionAt(idxs[1], int(head1.Size))
	if err != nil {
		t.Fatal(err)
	}
	var root aolog.Digest
	copy(root[:], head1.Head[:])
	if !aolog.VerifyShardInclusion(payload, proof, root) {
		t.Fatal("inclusion proof failed")
	}
	// The logged payload decodes back to a verifiable envelope.
	var env audit.AttestedStatusEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	if err := audit.VerifyStatusEnvelope(&f.params, &env); err != nil {
		t.Fatalf("logged envelope no longer verifies: %v", err)
	}
	// Consistency between an old head and the grown log.
	if _, _, err := f.mon.Submit(envelope(fw, "n9")); err != nil {
		t.Fatal(err)
	}
	head2 := signedHead(t, f.mon)
	cons, err := f.mon.ProveConsistencyBetween(int(head1.Size), int(head2.Size))
	if err != nil {
		t.Fatal(err)
	}
	if !aolog.VerifyShardConsistency(head1.Head, head2.Head, cons) {
		t.Fatal("monitor log consistency proof failed")
	}
}

func TestMonitorSubmitBatch(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	envs := []*audit.AttestedStatusEnvelope{
		envelope(fw, "b0"), envelope(fw, "b1"), envelope(fw, "b2"),
	}
	// One unattributable-garbage envelope in the middle of the batch.
	bad := envelope(fw, "b3")
	bad.Resp.Status.Version++
	envs = append(envs[:2], append([]*audit.AttestedStatusEnvelope{bad}, envs[2])...)
	out := f.mon.SubmitBatch(envs)
	if len(out) != 4 {
		t.Fatalf("got %d outcomes", len(out))
	}
	wantIdx := []int{0, 1, -1, 2}
	for i, o := range out {
		if o.LogIndex != wantIdx[i] {
			t.Fatalf("outcome %d index %d, want %d", i, o.LogIndex, wantIdx[i])
		}
		if (o.Err != nil) != (wantIdx[i] == -1) {
			t.Fatalf("outcome %d error mismatch: %v", i, o.Err)
		}
		if o.Alert != nil {
			t.Fatalf("honest batched submission %d flagged: %s", i, o.Alert.Kind)
		}
	}
	if f.mon.Observations("d1") != 3 {
		t.Fatal("batch observation count wrong")
	}
	// Batched and sequential ingestion agree with the audit log.
	head := signedHead(t, f.mon)
	if head.Size != 3 {
		t.Fatalf("tree head size %d, want 3", head.Size)
	}
	payload, proof, err := f.mon.ProveInclusionAt(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !aolog.VerifyShardInclusion(payload, proof, head.Head) {
		t.Fatal("batched entry inclusion proof failed")
	}
}

func TestMonitorBatchRejectsNilEnvelope(t *testing.T) {
	// A remote submitbatch frame can carry JSON nulls; they must be
	// rejected per entry, not crash the monitor.
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	out := f.mon.SubmitBatch([]*audit.AttestedStatusEnvelope{nil, envelope(fw, "ok")})
	if out[0].Err == nil || out[0].LogIndex != -1 {
		t.Fatalf("nil envelope not rejected: %+v", out[0])
	}
	if out[1].Err != nil || out[1].LogIndex != 0 {
		t.Fatalf("honest neighbor affected: %+v", out[1])
	}
}

func TestMonitorBatchDetectsIntraBatchContradiction(t *testing.T) {
	f := newFixture(t)
	fwA := f.newFramework(t, blsapp.ModuleBytes())
	mB := blsapp.Module()
	mB.Functions[0].Code = append(mB.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	fwB := f.newFramework(t, mB.Encode())
	out := f.mon.SubmitBatch([]*audit.AttestedStatusEnvelope{
		envelope(fwA, "clientA"),
		envelope(fwB, "clientB"), // split view inside the same batch
	})
	if out[0].Alert != nil {
		t.Fatal("first view flagged")
	}
	if out[1].Alert == nil || out[1].Alert.Kind != audit.MisbehaviorEquivocation {
		t.Fatalf("intra-batch split view not detected: %+v", out[1].Alert)
	}
	if err := audit.VerifyMisbehavior(&f.params, out[1].Alert); err != nil {
		t.Fatalf("intra-batch proof rejected: %v", err)
	}
}

func TestMonitorBLSHeadsBatchAudited(t *testing.T) {
	f := newFixture(t)
	sk := mustKey(t)
	f.mon = New(f.params, sk)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	var heads []aolog.BLSSignedHead
	for i := 0; i < 4; i++ {
		if _, _, err := f.mon.Submit(envelope(fw, "h"+string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
		h, err := f.mon.TreeHeadBLS()
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, h)
	}
	auditor := audit.NewClient(f.params)
	defer auditor.Close()
	if err := auditor.VerifyMonitorHeads(f.mon.BLSPublicKey(), heads); err != nil {
		t.Fatalf("honest head batch rejected: %v", err)
	}
	// A head forged by a different key must sink the batch.
	forger, _, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	forged := aolog.SignHeadBLS(forger, heads[2].Size, heads[2].Head)
	tampered := append(append([]aolog.BLSSignedHead{}, heads[:2]...), forged, heads[3])
	if err := auditor.VerifyMonitorHeads(f.mon.BLSPublicKey(), tampered); err == nil {
		t.Fatal("batch with forged head accepted")
	}
	// Two different heads at the same size are equivocation evidence.
	equiv := append([]aolog.BLSSignedHead{}, heads...)
	other := heads[3]
	other.Head[0] ^= 0xff
	equiv = append(equiv, aolog.SignHeadBLS(sk, other.Size, other.Head))
	if err := auditor.VerifyMonitorHeads(f.mon.BLSPublicKey(), equiv); err == nil {
		t.Fatal("equivocating head sequence accepted")
	}
}
