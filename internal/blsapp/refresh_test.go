package blsapp

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bls"
	"repro/internal/framework"
)

// refreshFixture is a t-of-n deployment of in-process sandboxed
// frameworks with per-domain share states (durable when dir != "").
type refreshFixture struct {
	tk     *bls.ThresholdKey
	dev    *framework.Developer // update + refresh-signing authority
	states []*ShareState
	inv    *memInvoker
}

func newRefreshFixture(t testing.TB, tt, n int, dir string) *refreshFixture {
	t.Helper()
	tk, shares, err := bls.ThresholdKeyGen(tt, n)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	f := &refreshFixture{tk: tk, dev: dev, inv: &memInvoker{fail: map[int]bool{}}}
	for i := range shares {
		var st *ShareState
		if dir != "" {
			st, err = OpenShareState(filepath.Join(dir, fmt.Sprintf("share-%d.json", i)), &shares[i], tk, dev.PublicKey(), false)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			st = NewShareStateWithKey(shares[i], tk, dev.PublicKey())
		}
		f.states = append(f.states, st)
		f.inv.fws = append(f.inv.fws, newStateFramework(t, dev, st))
	}
	return f
}

func newStateFramework(t testing.TB, dev *framework.Developer, st *ShareState) *framework.Framework {
	t.Helper()
	fw, err := framework.New(dev.PublicKey(), nil, Hosts(st))
	if err != nil {
		t.Fatal(err)
	}
	mb := ModuleBytes()
	if err := fw.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	return fw
}

// mustFrame extracts domain i's decoded (developer-signed) refresh
// frame from a ceremony.
func mustFrame(t testing.TB, dev *framework.Developer, ref *bls.Refresh, i int) *RefreshFrame {
	t.Helper()
	req, err := RefreshRequestFor(ref, i, dev)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := DecodeRefreshFrame(req[1:])
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// resign refreshes a mutated frame's developer signature, so tests of
// the inner (epoch/Feldman) guards are not short-circuited by the
// authentication check.
func resign(dev *framework.Developer, frame *RefreshFrame) {
	copy(frame.DevSig[:], dev.SignRefresh(frame.EncodeBody()))
}

// TestRefreshCeremonyThroughSandboxes drives a full ceremony through
// the sandboxed invoke path and checks the epoch state machine edge by
// edge: old-epoch requests go stale, new-epoch requests sign under the
// unchanged group key, replays ack idempotently, and rollbacks/skips
// are refused.
func TestRefreshCeremonyThroughSandboxes(t *testing.T) {
	f := newRefreshFixture(t, 2, 3, "")
	msg := []byte("pre-refresh message")
	sig0, err := ThresholdSign(f.inv, f.tk, msg)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := bls.NewRefresh(f.tk)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunRefreshCeremony(f.inv, ref, f.dev, CeremonyDiagnostics{}); err != nil {
		t.Fatal(err)
	}
	for i, st := range f.states {
		if st.Epoch() != 1 {
			t.Fatalf("domain %d at epoch %d after ceremony", i, st.Epoch())
		}
	}

	// Old-epoch signing now yields a typed stale error naming both epochs.
	_, err = ThresholdSign(f.inv, f.tk, msg)
	var stale *StaleEpochError
	if !errors.As(err, &stale) {
		t.Fatalf("old-epoch sign: got %v, want StaleEpochError", err)
	}
	if stale.WantEpoch != 0 || stale.DomainEpoch != 1 {
		t.Fatalf("stale error epochs: %+v", stale)
	}

	// New-epoch signing works and — threshold signatures being unique —
	// produces the identical bits, so witness frontiers cosigning this
	// deployment's output never notice the refresh.
	sig1, err := ThresholdSign(f.inv, ref.NewKey, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bls.Verify(&f.tk.GroupKey, msg, sig1) {
		t.Fatal("post-refresh signature invalid under the original group key")
	}
	if !sig0.Equal(sig1) {
		t.Fatal("refresh changed the threshold signature bits")
	}

	// Replaying the completed ceremony is an idempotent ack.
	if err := RunRefreshCeremony(f.inv, ref, f.dev, CeremonyDiagnostics{}); err != nil {
		t.Fatalf("replaying a completed ceremony: %v", err)
	}
	// Rollback (stale ceremony) and epoch-skipping frames are refused.
	rollback := mustFrame(t, f.dev, ref, 0)
	rollback.NewEpoch = 0
	rollback.CeremonyID[0] ^= 0xff
	resign(f.dev, rollback)
	if err := f.states[0].ApplyRefresh(rollback); err == nil {
		t.Fatal("rollback ceremony accepted")
	}
	skip := mustFrame(t, f.dev, ref, 0)
	skip.NewEpoch = 3
	resign(f.dev, skip)
	if err := f.states[0].ApplyRefresh(skip); err == nil {
		t.Fatal("epoch-skipping ceremony accepted")
	}
}

// TestRefreshRejectsGroupKeyMove: a malicious coordinator who tries to
// re-share a DIFFERENT secret (moving the key that clients pinned) is
// caught by the in-sandbox Feldman check on the commitment's constant
// term, and by the share check for deltas inconsistent with the
// commitment.
func TestRefreshRejectsGroupKeyMove(t *testing.T) {
	f := newRefreshFixture(t, 2, 3, "")
	evilKey, _, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	evil, err := bls.NewRefresh(evilKey) // valid ceremony for the WRONG deployment
	if err != nil {
		t.Fatal(err)
	}
	// Even a frame the developer key DID sign is rejected when it moves
	// the group key: authentication gates the Feldman check, it does not
	// replace it.
	frame := mustFrame(t, f.dev, evil, 0)
	if err := f.states[0].ApplyRefresh(frame); err == nil {
		t.Fatal("ceremony moving the group key was accepted")
	}

	// Right commitment, corrupted delta: fails the share check.
	good, err := bls.NewRefresh(f.tk)
	if err != nil {
		t.Fatal(err)
	}
	bad := mustFrame(t, f.dev, good, 0)
	var one [32]byte
	one[31] = 1
	var tampered = bad.Delta
	if err := tampered.SetBytes(one[:]); err != nil {
		t.Fatal(err)
	}
	bad.Delta = tampered
	resign(f.dev, bad)
	if err := f.states[0].ApplyRefresh(bad); err == nil {
		t.Fatal("delta inconsistent with the commitment was accepted")
	}
	if f.states[0].Epoch() != 0 {
		t.Fatal("rejected ceremonies moved the epoch")
	}
}

// TestConcurrentRefreshAndSignBatch hammers ThresholdSignBatch from
// several goroutines while refresh ceremonies run in a loop (run under
// -race in CI). Every signature that comes back must verify under the
// never-changing group key — which is exactly the statement that no
// mixed-epoch combination ever slipped through — and epoch chasing must
// absorb all staleness.
func TestConcurrentRefreshAndSignBatch(t *testing.T) {
	f := newRefreshFixture(t, 2, 3, "")
	ring := NewKeyRing(f.tk)
	msgs := [][]byte{[]byte("hammer one"), []byte("hammer two")}

	const signers = 3
	const signsPerWorker = 4
	const ceremonies = 5

	var wg sync.WaitGroup
	errCh := make(chan error, signers*signsPerWorker+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := f.tk
		for r := 0; r < ceremonies; r++ {
			ref, err := bls.NewRefresh(cur)
			if err != nil {
				errCh <- err
				return
			}
			if err := RunRefreshCeremony(f.inv, ref, f.dev, CeremonyDiagnostics{}); err != nil {
				errCh <- err
				return
			}
			cur = ref.NewKey
			ring.Update(cur)
		}
	}()

	for w := 0; w < signers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < signsPerWorker; j++ {
				sigs, err := ThresholdSignBatchAuto(f.inv, ring, msgs)
				if err != nil {
					errCh <- err
					return
				}
				for k, sig := range sigs {
					if !bls.Verify(&f.tk.GroupKey, msgs[k], sig) {
						errCh <- errors.New("signature under refresh churn failed group-key verification")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := ring.CurrentThresholdKey().Epoch; got != ceremonies {
		t.Fatalf("ring at epoch %d after %d ceremonies", got, ceremonies)
	}
	// The deployment still signs at the final epoch.
	sig, err := ThresholdSignAuto(f.inv, ring, []byte("after the churn"))
	if err != nil {
		t.Fatal(err)
	}
	if !bls.Verify(&f.tk.GroupKey, []byte("after the churn"), sig) {
		t.Fatal("final signature invalid")
	}
}

// TestShareStateCrashAtEveryOffset reuses the store's kill-at-every-
// offset discipline on the share file's atomic-replace protocol: a
// domain killed at ANY byte of the temp-file write restarts into the
// OLD epoch with an intact share (rollback), a domain killed after the
// rename restarts into the NEW epoch (commit), and in both cases
// re-driving the same ceremony converges — never a torn share.
func TestShareStateCrashAtEveryOffset(t *testing.T) {
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bls.NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	frame := mustFrame(t, dev, ref, 0)

	// Produce the exact before/after file images by running one domain
	// through the refresh for real.
	dir := t.TempDir()
	path := filepath.Join(dir, "share.json")
	st, err := OpenShareState(path, &shares[0], tk, dev.PublicKey(), false)
	if err != nil {
		t.Fatal(err)
	}
	oldImage, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyRefresh(frame); err != nil {
		t.Fatal(err)
	}
	newImage, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash DURING the replace: old main file + temp file torn at every
	// offset (including complete-but-unrenamed).
	for cut := 0; cut <= len(newImage); cut++ {
		crashDir := t.TempDir()
		p := filepath.Join(crashDir, "share.json")
		if err := os.WriteFile(p, oldImage, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p+".tmp", newImage[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		rec, err := OpenShareState(p, nil, tk, dev.PublicKey(), false)
		if err != nil {
			t.Fatalf("cut %d: restart failed: %v", cut, err)
		}
		ks := rec.Current()
		if ks.Epoch != 0 || !ks.Share.Equal(&shares[0].Share) {
			t.Fatalf("cut %d: torn write leaked into the share (epoch %d)", cut, ks.Epoch)
		}
		// Re-driving the same ceremony completes the transition.
		if err := rec.ApplyRefresh(frame); err != nil {
			t.Fatalf("cut %d: re-drive: %v", cut, err)
		}
		if rec.Epoch() != 1 {
			t.Fatalf("cut %d: re-drive left epoch %d", cut, rec.Epoch())
		}
	}

	// Crash AFTER the rename: new main file; restart resumes the new
	// epoch and the ceremony replay is an idempotent no-op.
	commitDir := t.TempDir()
	p := filepath.Join(commitDir, "share.json")
	if err := os.WriteFile(p, newImage, 0o600); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenShareState(p, nil, tk, dev.PublicKey(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch() != 1 {
		t.Fatalf("committed state recovered at epoch %d", rec.Epoch())
	}
	if err := rec.ApplyRefresh(frame); err != nil {
		t.Fatalf("idempotent replay after commit: %v", err)
	}
	want := st.Current()
	got := rec.Current()
	if !got.Share.Equal(&want.Share) || got.Epoch != want.Epoch {
		t.Fatal("recovered share diverged from the live transition")
	}

	// A corrupted main file must refuse to serve, not fabricate a share.
	badDir := t.TempDir()
	bp := filepath.Join(badDir, "share.json")
	if err := os.WriteFile(bp, newImage[:len(newImage)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShareState(bp, nil, tk, dev.PublicKey(), false); err == nil {
		t.Fatal("torn MAIN file opened without error")
	}
}

// TestCeremonyCrashMidwayRecovers kills the deployment after every
// prefix of the ceremony (0, 1, .., n-1 domains already moved),
// restarts every domain from its durable file — deliberately into MIXED
// epochs — and re-drives the same package: the ceremony must converge,
// after which the new epoch signs and the old one is stale everywhere.
func TestCeremonyCrashMidwayRecovers(t *testing.T) {
	const n = 3
	for crashAfter := 0; crashAfter < n; crashAfter++ {
		dir := t.TempDir()
		f := newRefreshFixture(t, 2, n, dir)
		ref, err := bls.NewRefresh(f.tk)
		if err != nil {
			t.Fatal(err)
		}
		// Drive the ceremony to the crash point through the sandboxes.
		for i := 0; i < crashAfter; i++ {
			req, err := RefreshRequestFor(ref, i, f.dev)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := f.inv.Invoke(i, req)
			if err != nil {
				t.Fatal(err)
			}
			if ep, err := DecodeRefreshAck(resp); err != nil || ep != ref.NewEpoch {
				t.Fatalf("crashAfter=%d domain %d: ack %d, %v", crashAfter, i, ep, err)
			}
		}
		// "Crash": every domain restarts from disk; shares must come back
		// at exactly the epoch each durably reached.
		restarted := &memInvoker{fail: map[int]bool{}}
		for i := 0; i < n; i++ {
			st, err := OpenShareState(filepath.Join(dir, fmt.Sprintf("share-%d.json", i)), nil, f.tk, f.dev.PublicKey(), false)
			if err != nil {
				t.Fatalf("crashAfter=%d: restart domain %d: %v", crashAfter, i, err)
			}
			wantEpoch := uint64(0)
			if i < crashAfter {
				wantEpoch = 1
			}
			if st.Epoch() != wantEpoch {
				t.Fatalf("crashAfter=%d: domain %d restarted at epoch %d, want %d", crashAfter, i, st.Epoch(), wantEpoch)
			}
			restarted.fws = append(restarted.fws, newStateFramework(t, f.dev, st))
		}
		// Re-drive the SAME package: already-moved domains ack
		// idempotently, the rest catch up.
		if err := RunRefreshCeremony(restarted, ref, f.dev, CeremonyDiagnostics{}); err != nil {
			t.Fatalf("crashAfter=%d: re-drive: %v", crashAfter, err)
		}
		msg := []byte("signed after crash recovery")
		sig, err := ThresholdSign(restarted, ref.NewKey, msg)
		if err != nil {
			t.Fatalf("crashAfter=%d: %v", crashAfter, err)
		}
		if !bls.Verify(&f.tk.GroupKey, msg, sig) {
			t.Fatalf("crashAfter=%d: recovered deployment signs invalidly", crashAfter)
		}
		var stale *StaleEpochError
		if _, err := ThresholdSign(restarted, f.tk, msg); !errors.As(err, &stale) {
			t.Fatalf("crashAfter=%d: old epoch still signs after recovery: %v", crashAfter, err)
		}
	}
}

// BenchmarkRefreshCeremony measures one full proactive refresh of a
// 2-of-3 deployment through the sandboxed invoke path: dealer sampling,
// three in-sandbox Feldman verifications + durable installs, and the
// rotated-key derivation. Emitted as BENCH_refresh.json by CI.
func BenchmarkRefreshCeremony(b *testing.B) {
	dir := b.TempDir()
	f := newRefreshFixture(b, 2, 3, dir)
	cur := f.tk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := bls.NewRefresh(cur)
		if err != nil {
			b.Fatal(err)
		}
		if err := RunRefreshCeremony(f.inv, ref, f.dev, CeremonyDiagnostics{}); err != nil {
			b.Fatal(err)
		}
		cur = ref.NewKey
	}
}

// TestRefreshFrameAuthentication: the op=3 package must be signed by
// the developer key the domain sealed, and the signature must cover
// every byte of the frame body — an unsigned frame, a frame signed by
// any other key, and a signed-then-tampered frame are all rejected
// BEFORE the Feldman machinery runs, leaving the epoch untouched.
func TestRefreshFrameAuthentication(t *testing.T) {
	f := newRefreshFixture(t, 2, 3, "")
	ref, err := bls.NewRefresh(f.tk)
	if err != nil {
		t.Fatal(err)
	}

	// Unsigned (zero signature).
	unsigned := mustFrame(t, f.dev, ref, 0)
	unsigned.DevSig = [64]byte{}
	if err := f.states[0].ApplyRefresh(unsigned); err == nil {
		t.Fatal("unsigned refresh frame accepted")
	}

	// Signed by a different (attacker) key — an otherwise perfectly
	// valid ceremony package.
	mallory, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	wrongKey := mustFrame(t, mallory, ref, 0)
	if err := f.states[0].ApplyRefresh(wrongKey); err == nil {
		t.Fatal("refresh frame signed by a non-developer key accepted")
	}

	// Genuine signature, then a one-bit tamper of the delta: the
	// signature check must catch it (the Feldman check would too, but
	// authentication fails first and cheaper).
	tampered := mustFrame(t, f.dev, ref, 0)
	var delta [32]byte
	db := tampered.Delta.Bytes()
	copy(delta[:], db[:])
	delta[31] ^= 0x01
	if err := tampered.Delta.SetBytes(delta[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.states[0].ApplyRefresh(tampered); err == nil {
		t.Fatal("tampered refresh frame accepted")
	}

	// A state with no bound authority refuses even genuine frames.
	_, shares2, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	orphan := NewShareStateWithKey(shares2[0], f.tk, nil)
	if err := orphan.ApplyRefresh(mustFrame(t, f.dev, ref, 0)); err == nil {
		t.Fatal("state without a refresh authority accepted a frame")
	}

	if f.states[0].Epoch() != 0 {
		t.Fatal("rejected frames moved the epoch")
	}

	// The genuine signed frame still applies.
	if err := f.states[0].ApplyRefresh(mustFrame(t, f.dev, ref, 0)); err != nil {
		t.Fatalf("genuine signed frame rejected: %v", err)
	}
	if f.states[0].Epoch() != 1 {
		t.Fatal("genuine frame did not advance the epoch")
	}
}
