package blsapp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bls"
	"repro/internal/framework"
	"repro/internal/transport"
)

func newAppFramework(t *testing.T, ks *bls.KeyShare) (*framework.Framework, *framework.Developer) {
	t.Helper()
	return newAppFrameworkState(t, NewShareState(*ks))
}

func newAppFrameworkState(t *testing.T, st *ShareState) (*framework.Framework, *framework.Developer) {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	f, err := framework.New(dev.PublicKey(), nil, Hosts(st))
	if err != nil {
		t.Fatal(err)
	}
	mb := ModuleBytes()
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	return f, dev
}

func TestModuleDeterministic(t *testing.T) {
	if Module().Digest() != Module().Digest() {
		t.Fatal("module digest not deterministic")
	}
}

func TestSignShareThroughSandbox(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := newAppFramework(t, &shares[0])
	msg := []byte("message to sign through the sandbox")
	resp, err := f.Invoke(EncodeSignRequest(tk.Epoch, msg))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeSignResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Index != 1 {
		t.Fatalf("share index %d, want 1", ss.Index)
	}
	if !tk.VerifyShareSignature(msg, ss) {
		t.Fatal("sandboxed share signature invalid")
	}
	// Must match a native share signature bit for bit (BLS determinism).
	native := shares[0].SignShare(msg)
	if ss.Sig.Bytes() != native.Sig.Bytes() {
		t.Fatal("sandboxed and native shares differ")
	}
}

func TestBadRequestsRejected(t *testing.T) {
	_, shares, _ := bls.ThresholdKeyGen(2, 3)
	f, _ := newAppFramework(t, &shares[0])
	// Unknown opcode -> empty response -> decode error.
	resp, err := f.Invoke([]byte{99, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSignResponse(resp); err == nil {
		t.Fatal("bad opcode produced a share")
	}
	// Retired v1 framing (opcode 1, no epoch) must be rejected.
	resp, err = f.Invoke(append([]byte{1}, []byte("legacy message")...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSignResponse(resp); err == nil {
		t.Fatal("retired v1 sign framing produced a share")
	}
	// Too-short request (header only, no message).
	resp, err = f.Invoke(EncodeSignRequest(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSignResponse(resp); err == nil {
		t.Fatal("empty message produced a share")
	}
	// Garbage response length.
	if _, err := DecodeSignResponse(make([]byte, 13)); err == nil {
		t.Fatal("bad response length accepted")
	}
}

// memInvoker adapts a set of in-process frameworks to the Invoker
// interface for threshold-signing tests without sockets.
type memInvoker struct {
	fws  []*framework.Framework
	fail map[int]bool
}

func (m *memInvoker) Invoke(i int, req []byte) ([]byte, error) {
	if m.fail[i] {
		return nil, errTestDown
	}
	return m.fws[i].Invoke(req)
}

func (m *memInvoker) NumDomains() int { return len(m.fws) }

var errTestDown = &downError{}

type downError struct{}

func (*downError) Error() string { return "domain down" }

func TestThresholdSignAcrossSandboxes(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inv := &memInvoker{fail: map[int]bool{}}
	for i := range shares {
		f, _ := newAppFramework(t, &shares[i])
		inv.fws = append(inv.fws, f)
	}
	msg := []byte("threshold over sandboxes")
	sig, err := ThresholdSign(inv, tk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bls.Verify(&tk.GroupKey, msg, sig) {
		t.Fatal("combined signature invalid")
	}
	// One domain down: still succeeds (2 of 3).
	inv.fail[0] = true
	sig2, err := ThresholdSign(inv, tk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Bytes() != sig2.Bytes() {
		t.Fatal("threshold signature not unique across share subsets")
	}
	// Two domains down: fails.
	inv.fail[1] = true
	if _, err := ThresholdSign(inv, tk, msg); err == nil {
		t.Fatal("signed with fewer than t domains")
	}
}

func TestThresholdSignBatchAcrossSandboxes(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inv := &memInvoker{fail: map[int]bool{}}
	for i := range shares {
		f, _ := newAppFramework(t, &shares[i])
		inv.fws = append(inv.fws, f)
	}
	msgs := [][]byte{
		[]byte("batch message one"),
		[]byte("batch message two"),
		[]byte("batch message three"),
	}
	sigs, err := ThresholdSignBatch(inv, tk, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != len(msgs) {
		t.Fatalf("got %d signatures", len(sigs))
	}
	for i, sig := range sigs {
		if !bls.Verify(&tk.GroupKey, msgs[i], sig) {
			t.Fatalf("batch signature %d invalid", i)
		}
		// Batch signatures must equal the single-message path's output
		// (threshold BLS signatures are unique).
		single, err := ThresholdSign(inv, tk, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if sig.Bytes() != single.Bytes() {
			t.Fatalf("batch signature %d differs from single-path signature", i)
		}
	}
	// One domain down: batch still completes (2-of-3).
	inv.fail[0] = true
	if _, err := ThresholdSignBatch(inv, tk, msgs); err != nil {
		t.Fatalf("batch with one failed domain: %v", err)
	}
	// Below threshold: the whole batch fails.
	inv.fail[1] = true
	if _, err := ThresholdSignBatch(inv, tk, msgs); err == nil {
		t.Fatal("batch signed with fewer than t domains")
	}
	if _, err := ThresholdSignBatch(inv, tk, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// countingInvoker records how many batched requests each domain receives.
type countingInvoker struct {
	*memInvoker
	batchCounts []int
}

func (ci *countingInvoker) InvokeBatch(i int, reqs [][]byte) ([][]byte, []string, error) {
	ci.batchCounts[i] += len(reqs)
	resps := make([][]byte, len(reqs))
	errs := make([]string, len(reqs))
	for j, r := range reqs {
		resp, err := ci.Invoke(i, r)
		if err != nil {
			errs[j] = err.Error()
			continue
		}
		resps[j] = resp
	}
	return resps, errs, nil
}

func TestThresholdSignBatchOnlySendsPendingMessages(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mi := &memInvoker{fail: map[int]bool{}}
	for i := range shares {
		f, _ := newAppFramework(t, &shares[i])
		mi.fws = append(mi.fws, f)
	}
	ci := &countingInvoker{memInvoker: mi, batchCounts: make([]int, 3)}
	msgs := [][]byte{[]byte("pending a"), []byte("pending b")}
	if _, err := ThresholdSignBatch(ci, tk, msgs); err != nil {
		t.Fatal(err)
	}
	// Domains 0 and 1 supply the t=2 shares for both messages; domain 2
	// must not be asked to sign anything.
	if ci.batchCounts[0] != 2 || ci.batchCounts[1] != 2 || ci.batchCounts[2] != 0 {
		t.Fatalf("batched request counts per domain = %v, want [2 2 0]", ci.batchCounts)
	}
}

// invokeCounter counts the Invoke and InvokeBatch calls that reach a
// memInvoker. Only batchInvokeCounter offers InvokeBatch.
type invokeCounter struct {
	*memInvoker
	invokes, batches int
}

func (c *invokeCounter) Invoke(i int, req []byte) ([]byte, error) {
	c.invokes++
	return c.memInvoker.Invoke(i, req)
}

type batchInvokeCounter struct{ *invokeCounter }

func (c batchInvokeCounter) InvokeBatch(int, [][]byte) ([][]byte, []string, error) {
	c.batches++
	return nil, nil, errors.New("a one-message sign sent a batch")
}

// TestOneMessageSignSendsInvoke: a one-message sign is one plain invoke
// to each of t domains, whether or not the deployment batches — never an
// invokebatch frame around a single request.
func TestOneMessageSignSendsInvoke(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mi := &memInvoker{fail: map[int]bool{}}
	for i := range shares {
		f, _ := newAppFramework(t, &shares[i])
		mi.fws = append(mi.fws, f)
	}
	plain := &invokeCounter{memInvoker: mi}
	batching := batchInvokeCounter{&invokeCounter{memInvoker: mi}}
	for _, tc := range []struct {
		name string
		inv  Invoker
		c    *invokeCounter
	}{{"plain", plain, plain}, {"batching", batching, batching.invokeCounter}} {
		msg := []byte("one message, " + tc.name)
		sig, err := ThresholdSign(tc.inv, tk, msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bls.Verify(&tk.GroupKey, msg, sig) {
			t.Fatalf("%s: signature invalid", tc.name)
		}
		if tc.c.invokes != tk.T || tc.c.batches != 0 {
			t.Fatalf("%s: %d invokes and %d batches, want %d and 0", tc.name, tc.c.invokes, tc.c.batches, tk.T)
		}
	}
}

// echoTruncInvoker echoes each request back as its response but drops the
// last entry of every batch, exercising chunk-boundary alignment without
// any crypto.
type echoTruncInvoker struct{}

func (echoTruncInvoker) Invoke(_ int, r []byte) ([]byte, error) { return r, nil }
func (echoTruncInvoker) NumDomains() int                        { return 1 }
func (echoTruncInvoker) InvokeBatch(_ int, reqs [][]byte) ([][]byte, []string, error) {
	return append([][]byte{}, reqs[:len(reqs)-1]...), nil, nil
}

func TestInvokeManyAlignsTruncatedChunks(t *testing.T) {
	// More requests than one transport frame allows: invokeMany chunks,
	// and a domain truncating each chunk must not shift later chunks'
	// responses onto earlier requests' positions.
	const n = transport.MaxBatchCalls + 904
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = []byte(fmt.Sprintf("req-%d", i))
	}
	resps, errs, err := invokeMany(echoTruncInvoker{}, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != n || len(errs) != n {
		t.Fatalf("got %d responses, %d errors, want %d of each", len(resps), len(errs), n)
	}
	truncated := map[int]bool{transport.MaxBatchCalls - 1: true, n - 1: true}
	for k := range reqs {
		if truncated[k] {
			if resps[k] != nil || errs[k] == "" {
				t.Fatalf("position %d: truncated entry not marked (resp=%q err=%q)", k, resps[k], errs[k])
			}
			continue
		}
		if string(resps[k]) != string(reqs[k]) || errs[k] != "" {
			t.Fatalf("position %d misaligned: resp=%q err=%q", k, resps[k], errs[k])
		}
	}
}

// truncatingInvoker wraps memInvoker as a BatchInvoker whose batch
// responses are short by one entry, as a misbehaving domain's would be.
type truncatingInvoker struct{ *memInvoker }

func (ti *truncatingInvoker) InvokeBatch(i int, reqs [][]byte) ([][]byte, []string, error) {
	resps := make([][]byte, 0, len(reqs))
	for _, r := range reqs[:len(reqs)-1] {
		resp, err := ti.Invoke(i, r)
		if err != nil {
			return nil, nil, err
		}
		resps = append(resps, resp)
	}
	return resps, nil, nil
}

func TestThresholdSignBatchSurvivesTruncatedResponse(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mi := &memInvoker{fail: map[int]bool{}}
	for i := range shares {
		f, _ := newAppFramework(t, &shares[i])
		mi.fws = append(mi.fws, f)
	}
	msgs := [][]byte{[]byte("trunc a"), []byte("trunc b")}
	// Every domain truncates its batch response: the last message can
	// never gather shares, so the batch must fail cleanly — not panic.
	if _, err := ThresholdSignBatch(&truncatingInvoker{mi}, tk, msgs); err == nil {
		t.Fatal("batch succeeded despite truncated responses")
	}
}

// corruptingInvoker wraps memInvoker: domain bad answers every sign
// request with a well-formed share whose signature is another key's, and
// calls counts the requests each domain receives.
type corruptingInvoker struct {
	*memInvoker
	bad   int
	wrong [48]byte
	calls []int
}

func (ci *corruptingInvoker) Invoke(i int, req []byte) ([]byte, error) {
	ci.calls[i]++
	resp, err := ci.memInvoker.Invoke(i, req)
	if err != nil || i != ci.bad {
		return resp, err
	}
	out := append([]byte(nil), resp...)
	copy(out[12:], ci.wrong[:])
	return out, nil
}

// TestBadShareIsNamedAndReplaced: domain 0's share does not verify, so
// the signature is combined from domains 1 and 2 and verifies under the
// group key; with domain 2 down too, the error names share index 1.
func TestBadShareIsNamedAndReplaced(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mi := &memInvoker{fail: map[int]bool{}}
	for i := range shares {
		f, _ := newAppFramework(t, &shares[i])
		mi.fws = append(mi.fws, f)
	}
	other, _, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	inv := &corruptingInvoker{memInvoker: mi, bad: 0, wrong: other.Sign([]byte("x")).Bytes(), calls: make([]int, 3)}
	msgs := [][]byte{[]byte("bad share a"), []byte("bad share b")}
	sigs, err := ThresholdSignBatch(inv, tk, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, sig := range sigs {
		if !bls.Verify(&tk.GroupKey, msgs[j], sig) {
			t.Fatalf("signature %d does not verify under the group key", j)
		}
	}
	if inv.calls[2] != len(msgs) {
		t.Fatalf("domain 2 was asked for %d shares, want %d (one per message)", inv.calls[2], len(msgs))
	}
	mi.fail[2] = true
	_, err = ThresholdSign(inv, tk, msgs[0])
	if err == nil || !strings.Contains(err.Error(), "share index 1 does not verify") {
		t.Fatalf("sign with the bad share and one good one: error %v, want it to name share index 1", err)
	}
}

func BenchmarkSignShareSandboxed(b *testing.B) {
	_, shares, _ := bls.ThresholdKeyGen(2, 3)
	dev, _ := framework.NewDeveloper()
	f, _ := framework.New(dev.PublicKey(), nil, Hosts(NewShareState(shares[0])))
	mb := ModuleBytes()
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		b.Fatal(err)
	}
	req := EncodeSignRequest(0, []byte("table 3 message: a 32-byte-ish m"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Invoke(req); err != nil {
			b.Fatal(err)
		}
	}
}
