package framework

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/aolog"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

// echoAppSrc is a minimal ABI-conforming application: it copies the
// request to the response region and returns its length.
const echoAppSrc = `
module memory=135168
func handle params=2 locals=1 results=1
    push 0
    localset 2
loop:
    localget 2
    localget 1
    ges
    brif done
    localget 2
    push 69632      ; ResponseOffset
    add
    localget 0
    localget 2
    add
    load8
    store8
    localget 2
    push 1
    add
    localset 2
    br loop
done:
    localget 1
    ret
end
`

// crashAppSrc traps immediately (out-of-bounds store).
const crashAppSrc = `
module memory=135168
func handle params=2 locals=0 results=1
    push 999999999
    push 1
    store8
    push 0
    ret
end
`

func echoModuleBytes(t *testing.T) []byte {
	t.Helper()
	m, err := sandbox.Assemble(echoAppSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m.Encode()
}

func newTestFramework(t *testing.T, withEnclave bool, opts ...Option) (*Framework, *Developer, *tee.Enclave, tee.RootSet) {
	t.Helper()
	dev, err := NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	var enclave *tee.Enclave
	var roots tee.RootSet
	if withEnclave {
		v, err := tee.NewVendor(tee.VendorSimNitro)
		if err != nil {
			t.Fatal(err)
		}
		enclave, err = v.Provision("test-host", Measure(dev.PublicKey()))
		if err != nil {
			t.Fatal(err)
		}
		roots = tee.RootSet{tee.VendorSimNitro: v.RootKey()}
	}
	f, err := New(dev.PublicKey(), enclave, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f, dev, enclave, roots
}

func TestInstallAndInvoke(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	mb := echoModuleBytes(t)
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	req := []byte("hello sandboxed app")
	resp, err := f.Invoke(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, req) {
		t.Fatalf("echo mismatch: %q", resp)
	}
	st := f.Status()
	if st.Version != 1 || st.LogLen != 1 || st.Pending != nil {
		t.Fatalf("unexpected status %+v", st)
	}
	m, _ := sandbox.Decode(mb)
	d := m.Digest()
	if st.CurrentDigest != hex.EncodeToString(d[:]) {
		t.Fatal("status digest mismatch")
	}
}

func TestInvokeWithoutInstall(t *testing.T) {
	f, _, _, _ := newTestFramework(t, false)
	if _, err := f.Invoke([]byte("x")); err == nil {
		t.Fatal("invoke without app succeeded")
	}
}

func TestUpdateRequiresDeveloperSignature(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	mb := echoModuleBytes(t)
	// Wrong signer.
	mallory, _ := NewDeveloper()
	if err := f.Install(1, mb, mallory.SignUpdate(1, mb)); err == nil {
		t.Fatal("foreign signature accepted")
	}
	// Signature over different version.
	if err := f.Install(2, mb, dev.SignUpdate(1, mb)); err == nil {
		t.Fatal("version mismatch accepted")
	}
	// Signature over different bytes.
	other := append([]byte{}, mb...)
	other[len(other)-1] ^= 1
	if err := f.Install(1, other, dev.SignUpdate(1, mb)); err == nil {
		t.Fatal("modified module accepted")
	}
	// Correct signature works.
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackRejected(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	mb := echoModuleBytes(t)
	if err := f.Install(5, mb, dev.SignUpdate(5, mb)); err != nil {
		t.Fatal(err)
	}
	if err := f.StageUpdate(5, mb, dev.SignUpdate(5, mb)); err == nil {
		t.Fatal("same-version replay accepted")
	}
	if err := f.StageUpdate(3, mb, dev.SignUpdate(3, mb)); err == nil {
		t.Fatal("rollback accepted")
	}
}

func TestPendingUpdateVisibleBeforeActivation(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	mb := echoModuleBytes(t)
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	// Stage version 2 (different module bytes so digest changes).
	m2, err := sandbox.Assemble(echoAppSrc + "\n; v2 comment changes nothing\n")
	if err != nil {
		t.Fatal(err)
	}
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mb2 := m2.Encode()
	if err := f.StageUpdate(2, mb2, dev.SignUpdate(2, mb2)); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Pending == nil || st.Pending.Version != 2 {
		t.Fatal("pending update not visible")
	}
	if st.Version != 1 {
		t.Fatal("update took effect before activation")
	}
	if st.LogLen != 1 {
		t.Fatal("log grew before activation")
	}
	if err := f.ActivateUpdate(); err != nil {
		t.Fatal(err)
	}
	st = f.Status()
	if st.Version != 2 || st.Pending != nil || st.LogLen != 2 {
		t.Fatalf("post-activation status wrong: %+v", st)
	}
	// The log history contains both digests, in order, and verifies.
	snap, hist, err := f.Snapshot(0)
	if err != nil || len(hist) != 2 {
		t.Fatal("history length wrong")
	}
	if !aolog.VerifyChain(hist, aolog.Digest(snap.LogHead)) {
		t.Fatal("history does not verify against head")
	}
	r0, err := DecodeRecord(hist[0])
	if err != nil {
		t.Fatal(err)
	}
	r1, err := DecodeRecord(hist[1])
	if err != nil {
		t.Fatal(err)
	}
	if r0.Version != 1 || r1.Version != 2 || r0.Digest == r1.Digest {
		t.Fatal("history records wrong")
	}
}

func TestActivateWithoutStage(t *testing.T) {
	f, _, _, _ := newTestFramework(t, false)
	if err := f.ActivateUpdate(); err == nil {
		t.Fatal("activation without staged update succeeded")
	}
}

func TestFrozenDeploymentRejectsUpdates(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false, WithFrozen())
	mb := echoModuleBytes(t)
	// The initial install (sealing the code at provisioning) is allowed.
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatalf("frozen framework rejected initial install: %v", err)
	}
	// Any later update is not.
	m2, err := sandbox.Assemble(echoAppSrc)
	if err != nil {
		t.Fatal(err)
	}
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mb2 := m2.Encode()
	if err := f.StageUpdate(2, mb2, dev.SignUpdate(2, mb2)); err == nil {
		t.Fatal("frozen framework accepted an update")
	}
	if !f.Status().Frozen {
		t.Fatal("frozen flag not reported")
	}
}

func TestABIRejections(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	// Too little memory.
	small := sandbox.MustAssemble("module memory=1024\nfunc handle params=2 locals=0 results=1\npush 0\nret\nend\n").Encode()
	if err := f.Install(1, small, dev.SignUpdate(1, small)); err == nil {
		t.Fatal("undersized memory accepted")
	}
	// Missing handle export.
	noHandle := sandbox.MustAssemble("module memory=135168\nfunc main params=2 locals=0 results=1\npush 0\nret\nend\n").Encode()
	if err := f.Install(1, noHandle, dev.SignUpdate(1, noHandle)); err == nil {
		t.Fatal("missing handle accepted")
	}
	// Wrong signature arity.
	badSig := sandbox.MustAssemble("module memory=135168\nfunc handle params=1 locals=0 results=1\npush 0\nret\nend\n").Encode()
	if err := f.Install(1, badSig, dev.SignUpdate(1, badSig)); err == nil {
		t.Fatal("wrong handle arity accepted")
	}
	// Garbage bytes.
	if err := f.Install(1, []byte("junk"), dev.SignUpdate(1, []byte("junk"))); err == nil {
		t.Fatal("garbage module accepted")
	}
}

func TestAppTrapDoesNotKillFramework(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	crash := sandbox.MustAssemble(crashAppSrc).Encode()
	if err := f.Install(1, crash, dev.SignUpdate(1, crash)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Invoke([]byte("boom")); err == nil {
		t.Fatal("crashing app returned success")
	}
	// Framework still serves status and accepts a fixed update.
	st := f.Status()
	if st.Version != 1 {
		t.Fatal("framework state corrupted by app trap")
	}
	mb := echoModuleBytes(t)
	if err := f.Install(2, mb, dev.SignUpdate(2, mb)); err != nil {
		t.Fatal(err)
	}
	resp, err := f.Invoke([]byte("ok"))
	if err != nil || string(resp) != "ok" {
		t.Fatal("recovery update failed")
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	mb := echoModuleBytes(t)
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Invoke(make([]byte, MaxRequestLen+1)); err == nil {
		t.Fatal("oversized request accepted")
	}
}

func TestAttestedStatus(t *testing.T) {
	f, dev, enclave, roots := newTestFramework(t, true)
	mb := echoModuleBytes(t)
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	nonce := []byte("client-nonce-123")
	as := f.AttestedStatus(nonce)
	if as.Quote == nil {
		t.Fatal("enclave-backed framework returned no quote")
	}
	if err := tee.VerifyQuote(roots, as.Quote); err != nil {
		t.Fatalf("quote rejected: %v", err)
	}
	// Quote must carry the framework measurement.
	if as.Quote.Measurement != Measure(dev.PublicKey()) {
		t.Fatal("quote measurement mismatch")
	}
	// Report data must bind the nonce and the status.
	want := StatusReportData(nonce, &as.Status)
	if as.Quote.ReportData != want {
		t.Fatal("report data does not bind status")
	}
	// A different nonce yields different report data (anti-replay).
	other := StatusReportData([]byte("other"), &as.Status)
	if other == want {
		t.Fatal("nonce not bound into report data")
	}
	_ = enclave
}

func TestDomainZeroHasNoQuote(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	mb := echoModuleBytes(t)
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	as := f.AttestedStatus([]byte("n"))
	if as.Quote != nil {
		t.Fatal("domain 0 produced a quote")
	}
}

func TestEnclaveMeasurementMustMatch(t *testing.T) {
	dev, _ := NewDeveloper()
	v, _ := tee.NewVendor(tee.VendorSimSGX)
	wrong, _ := v.Provision("host", tee.MeasureCode([]byte("something else")))
	if _, err := New(dev.PublicKey(), wrong, nil); err == nil {
		t.Fatal("mismatched enclave measurement accepted")
	}
}

func TestUpdateRecordRoundTrip(t *testing.T) {
	r := &UpdateRecord{Version: 7, Digest: "abcd", DevSig: []byte{1, 2}}
	dec, err := DecodeRecord(EncodeRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != 7 || dec.Digest != "abcd" || !bytes.Equal(dec.DevSig, []byte{1, 2}) {
		t.Fatal("record round trip failed")
	}
	if _, err := DecodeRecord([]byte("{")); err == nil {
		t.Fatal("bad record accepted")
	}
}

func TestManyUpdatesLogGrowth(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	base, err := sandbox.Assemble(echoAppSrc)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 10; v++ {
		m := *base
		m.Functions = append([]sandbox.Function{}, base.Functions...)
		m.Functions[0].Code = append(append([]sandbox.Instr{}, base.Functions[0].Code...),
			make([]sandbox.Instr, v)...) // v trailing nops (zero value = OpNop)
		for i := range m.Functions[0].Code[len(base.Functions[0].Code):] {
			m.Functions[0].Code[len(base.Functions[0].Code)+i] = sandbox.Instr{Op: sandbox.OpNop}
		}
		mb := m.Encode()
		if err := f.Install(v, mb, dev.SignUpdate(v, mb)); err != nil {
			t.Fatalf("update %d: %v", v, err)
		}
	}
	snap, hist, err := f.Snapshot(0)
	if err != nil || snap.LogLen != 10 {
		t.Fatalf("log length %d (%v), want 10", snap.LogLen, err)
	}
	if !aolog.VerifyChain(hist, aolog.Digest(snap.LogHead)) {
		t.Fatal("long history does not verify")
	}
	// Every version appears in order.
	for i, e := range hist {
		r, err := DecodeRecord(e)
		if err != nil {
			t.Fatal(err)
		}
		if r.Version != uint64(i+1) {
			t.Fatalf("history out of order at %d", i)
		}
	}
}

func BenchmarkInvokeEcho(b *testing.B) {
	dev, _ := NewDeveloper()
	f, _ := New(dev.PublicKey(), nil, nil)
	m, err := sandbox.Assemble(echoAppSrc)
	if err != nil {
		b.Fatal(err)
	}
	mb := m.Encode()
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		b.Fatal(err)
	}
	req := bytes.Repeat([]byte("x"), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Invoke(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullUpdateCycle(b *testing.B) {
	dev, _ := NewDeveloper()
	f, _ := New(dev.PublicKey(), nil, nil)
	base, err := sandbox.Assemble(echoAppSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := *base
		m.Functions = append([]sandbox.Function{}, base.Functions...)
		pad := make([]sandbox.Instr, i%64+1)
		m.Functions[0].Code = append(append([]sandbox.Instr{}, base.Functions[0].Code...), pad...)
		mb := m.Encode()
		v := uint64(i + 1)
		if err := f.Install(v, mb, dev.SignUpdate(v, mb)); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprintf
}
