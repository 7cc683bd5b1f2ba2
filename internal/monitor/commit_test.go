package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/blsapp"
	"repro/internal/obsv"
	"repro/internal/sandbox"
	"repro/internal/store"
)

// TestCommitFailureKeepsDurableState makes a commit's fsync fail
// through the disk hook. The failed batch must leave no trace: the
// length, the committed head, the proofs at the durable size, the
// observations and the alerts stay as they were, although the batch
// would have raised an alert. Later submits fail fast: no staging, no
// signature, no disk.
func TestCommitFailureKeepsDurableState(t *testing.T) {
	f := newFixture(t)
	fwA := f.newFramework(t, blsapp.ModuleBytes())
	mB := blsapp.Module()
	mB.Functions[0].Code = append(mB.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	fwB := f.newFramework(t, mB.Encode())

	boom := errors.New("injected disk error")
	var calls, failAt atomic.Int64
	failAt.Store(-1)
	mon, err := Open(t.TempDir(), f.params, &OpenOptions{Shards: 4, SnapshotEvery: -1, DiskFault: func(string) error {
		if calls.Add(1) == failAt.Load() {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	reg := obsv.NewRegistry()
	mon.RegisterMetrics(reg)
	for _, o := range mon.SubmitBatch([]*audit.AttestedStatusEnvelope{envelope(fwA, "a0"), envelope(fwA, "a1"), envelope(fwA, "a2")}) {
		if o.Err != nil || o.Alert != nil {
			t.Fatalf("honest batch: %+v", o)
		}
	}
	const n = 3
	head := signedHead(t, mon)
	if head.Size != n || !aolog.VerifyHeadBLS(mon.BLSPublicKey(), &head) {
		t.Fatalf("committed head %+v", head)
	}
	type proofAt struct {
		payload []byte
		proof   *aolog.ShardInclusionProof
	}
	proofs := make([]proofAt, n)
	for i := range proofs {
		p, pr, err := mon.ProveInclusionAt(i, n)
		if err != nil {
			t.Fatal(err)
		}
		proofs[i] = proofAt{append([]byte(nil), p...), pr}
	}
	cons, err := mon.ProveConsistencyBetween(1, n)
	if err != nil {
		t.Fatal(err)
	}
	signs := reg.Value("monitor_heads_signed_bls_total")

	// fwB's status contradicts fwA's: landing, it would raise an alert.
	failAt.Store(calls.Load() + 1)
	out := mon.SubmitBatch([]*audit.AttestedStatusEnvelope{envelope(fwA, "a3"), envelope(fwB, "b0")})
	for _, o := range out {
		if !errors.Is(o.Err, boom) || o.LogIndex != -1 || o.Alert != nil {
			t.Fatalf("batch through a failed fsync: %+v", o)
		}
	}
	if got := mon.Len(); got != n {
		t.Fatalf("Len after a failed commit = %d, want %d", got, n)
	}
	if got := signedHead(t, mon); got.Size != head.Size || got.Head != head.Head || !bytes.Equal(got.Signature, head.Signature) {
		t.Fatalf("head after a failed commit = %+v, want %+v", got, head)
	}
	for i, want := range proofs {
		p, pr, err := mon.ProveInclusionAt(i, n)
		if err != nil || !bytes.Equal(p, want.payload) || !aolog.VerifyShardInclusion(p, pr, head.Head) || mustJSON(t, pr) != mustJSON(t, want.proof) {
			t.Fatalf("proof of %d at size %d changed by a failed commit (%v)", i, n, err)
		}
	}
	if _, _, err := mon.ProveInclusionAt(n, n+1); err == nil {
		t.Fatal("a proof past the durable size was served")
	}
	if got, err := mon.ProveConsistencyBetween(1, n); err != nil || mustJSON(t, got) != mustJSON(t, cons) {
		t.Fatalf("consistency 1..%d changed by a failed commit (%v)", n, err)
	}
	if got := mon.Observations("d1"); got != n {
		t.Fatalf("observations after a failed commit = %d, want %d", got, n)
	}
	if got := len(mon.Alerts()); got != 0 {
		t.Fatalf("%d alerts from a batch that never committed", got)
	}

	// Fail fast: nothing staged, signed or sent to the disk.
	hookCalls, signsAtFailure := calls.Load(), reg.Value("monitor_heads_signed_bls_total")
	if signsAtFailure != signs+1 {
		t.Fatalf("the failed commit signed %v heads, want 1", signsAtFailure-signs)
	}
	if _, _, err := mon.Submit(envelope(fwA, "a4")); !errors.Is(err, boom) {
		t.Fatalf("submit after a failed commit = %v, want the sticky %v", err, boom)
	}
	if calls.Load() != hookCalls || reg.Value("monitor_heads_signed_bls_total") != signsAtFailure || mon.Len() != n {
		t.Fatal("a submit after a failed commit reached the disk, signed a head or grew the log")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCommitTornWALReopens cuts the WAL that three commits left, after
// the head signed at size 0, and reopens the monitor over each cut. What
// a cut recovers depends only on how many records end before it, so the
// cuts are every record boundary and one byte to either side of it
// (store's TestCommitTornWALAtEveryOffset cuts at every byte). An honest
// crash never makes Open refuse: the recovered head covers only
// recovered leaves, and the head handed out after the reopen is the
// recovered log's.
func TestCommitTornWALReopens(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	dir := t.TempDir()
	mon := openTestMonitor(t, dir, f.params, -1)
	signedHead(t, mon) // the head at size 0
	if _, _, err := mon.Submit(envelope(fw, "c0")); err != nil {
		t.Fatal(err)
	}
	for _, o := range mon.SubmitBatch([]*audit.AttestedStatusEnvelope{envelope(fw, "c1"), envelope(fw, "c2")}) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	if _, _, err := mon.Submit(envelope(fw, "c3")); err != nil {
		t.Fatal(err)
	}
	pk := mon.BLSPublicKey()
	// No Close: the WAL is what a crash leaves.
	wals, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("WAL files: %v %v", wals, err)
	}
	data, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1}
	if _, err := store.ScanRecords(bytes.NewReader(data), func(_ byte, payload []byte) error {
		end := cuts[len(cuts)-2] + 5 + len(payload) + 4 // u32 length, kind, payload, CRC
		cuts = append(cuts, end-1, end, end+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cuts[len(cuts)-2] != len(data) {
		t.Fatalf("records end at %d in a %d-byte WAL", cuts[len(cuts)-2], len(data))
	}
	for _, cut := range cuts[:len(cuts)-1] {
		cutDir := t.TempDir()
		copyDir(t, dir, cutDir)
		if err := os.Truncate(filepath.Join(cutDir, "wal", filepath.Base(wals[0])), int64(cut)); err != nil {
			t.Fatal(err)
		}
		m, err := Open(cutDir, f.params, &OpenOptions{Shards: 4, SnapshotEvery: -1, NoSync: true})
		if err != nil {
			t.Fatalf("cut at %d of %d: Open refused an honest crash: %v", cut, len(data), err)
		}
		info, _ := m.RecoveryInfo()
		if info.HasHead && int(info.HeadSize) > info.Leaves {
			t.Fatalf("cut at %d: head covers %d leaves, %d recovered", cut, info.HeadSize, info.Leaves)
		}
		h := signedHead(t, m)
		if int(h.Size) != m.Len() || !aolog.VerifyHeadBLS(pk, &h) {
			t.Fatalf("cut at %d: head %+v over a %d-leaf log", cut, h, m.Len())
		}
		m.Close()
	}
}

// TestParentFormatWALSignsOnce: a directory whose WAL ends in leaves
// with no head after them, as builds before commits carried heads left
// it, reopens; the first head asked for is signed and made durable with
// one head-led fsync, and asking again signs and syncs nothing.
func TestParentFormatWALSignsOnce(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var leaves [][]byte
	for _, nonce := range []string{"l0", "l1", "l2"} {
		b, err := json.Marshal(envelope(fw, nonce))
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, b)
	}
	if err := st.Commit(leaves, nil); err != nil { // the parent's AppendLeaves
		t.Fatal(err)
	}
	// No Close: a crash leaves the leaves in the WAL with no head.
	mon, err := Open(dir, f.params, &OpenOptions{Shards: 4, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if info, _ := mon.RecoveryInfo(); info.Leaves != 3 || info.HasHead {
		t.Fatalf("recovery info %+v, want 3 leaves and no head", info)
	}
	reg := obsv.NewRegistry()
	mon.RegisterMetrics(reg)
	for i := 0; i < 3; i++ {
		h := signedHead(t, mon)
		if h.Size != 3 || !aolog.VerifyHeadBLS(mon.BLSPublicKey(), &h) {
			t.Fatalf("head %+v", h)
		}
	}
	if s, fs := reg.Value("monitor_heads_signed_bls_total"), reg.Value("store_head_fsyncs_total"); s != 1 || fs != 1 {
		t.Fatalf("three head reads signed %v heads with %v head-led fsyncs, want 1 and 1", s, fs)
	}
	if _, _, err := mon.Submit(envelope(fw, "l3")); err != nil {
		t.Fatal(err)
	}
	if h := signedHead(t, mon); h.Size != 4 || reg.Value("monitor_heads_signed_bls_total") != 2 || reg.Value("store_head_fsyncs_total") != 1 {
		t.Fatalf("after a commit: head at %d, %v signed, %v head-led fsyncs; want 4, 2, 1",
			h.Size, reg.Value("monitor_heads_signed_bls_total"), reg.Value("store_head_fsyncs_total"))
	}
}

// Observations returns the recorded observation count for a domain.
func (m *Monitor) Observations(domain string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.perDom[domain]; t != nil {
		return len(t.logIndexes)
	}
	return 0
}
