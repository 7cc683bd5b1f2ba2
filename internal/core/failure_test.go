package core

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/domain"
	"repro/internal/transport"
)

// TestThresholdSurvivesDomainFailure: with a 2-of-3 deployment, killing
// one trust domain must not stop threshold signing — the availability
// half of the distributed-trust bargain.
func TestThresholdSurvivesDomainFailure(t *testing.T) {
	dep, tk, _ := deployBLS(t, false)
	msg := []byte("survives failure")
	sigBefore, err := blsapp.ThresholdSign(dep, tk, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill domain 0 (the developer's own, per Murphy).
	if err := dep.Domain(0).Close(); err != nil {
		t.Logf("close reported: %v (acceptable)", err)
	}
	sigAfter, err := blsapp.ThresholdSign(dep, tk, msg)
	if err != nil {
		t.Fatalf("signing failed with 2 of 3 domains alive: %v", err)
	}
	if sigBefore.Bytes() != sigAfter.Bytes() {
		t.Fatal("signature changed across domain failure (uniqueness violated)")
	}
	if !bls.Verify(&tk.GroupKey, msg, sigAfter) {
		t.Fatal("signature invalid")
	}
}

// TestTwoDomainFailuresBlockSigning: losing n-t+1 domains must make
// signing impossible — no secret reconstruction shortcut exists.
func TestTwoDomainFailuresBlockSigning(t *testing.T) {
	dep, tk, _ := deployBLS(t, false)
	dep.Domain(0).Close()
	dep.Domain(2).Close()
	if _, err := blsapp.ThresholdSign(dep, tk, []byte("m")); err == nil {
		t.Fatal("signed with only 1 of 3 domains")
	}
}

// TestConcurrentInvokes exercises the TEE domain's proxy and app-socket
// path under concurrency (shared app connection, per-client proxy
// upstreams).
func TestConcurrentInvokes(t *testing.T) {
	dep, tk, _ := deployBLS(t, false)
	msg := []byte("concurrent message")
	req := blsapp.EncodeSignRequest(tk.Epoch, msg)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				domainIdx := (w + j) % dep.NumDomains()
				resp, err := dep.Invoke(domainIdx, req)
				if err != nil {
					errs <- err
					return
				}
				ss, err := blsapp.DecodeSignResponse(resp)
				if err != nil {
					errs <- err
					return
				}
				if !tk.VerifyShareSignature(msg, ss) {
					errs <- errBadShare
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errBadShare = &badShareError{}

type badShareError struct{}

func (*badShareError) Error() string { return "invalid share under concurrency" }

// TestAuditAfterDomainFailure: the audit must fail loudly (error, not a
// silent pass) when a domain is unreachable.
func TestAuditAfterDomainFailure(t *testing.T) {
	dep, _, _ := deployBLS(t, false)
	c := dep.AuditClient()
	defer c.Close()
	if _, err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	dep.Domain(1).Close()
	c2 := dep.AuditClient() // fresh connections so the failure is visible
	defer c2.Close()
	if _, err := c2.Audit(); err == nil {
		t.Fatal("audit silently passed with an unreachable domain")
	}
}

// connRecorder is a listener wrapper that remembers every accepted
// connection so a test can reset them from the server side.
type connRecorder struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (r *connRecorder) wrap(ln net.Listener) net.Listener {
	return &recordingListener{Listener: ln, rec: r}
}

// resetAll closes every connection accepted so far.
func (r *connRecorder) resetAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

type recordingListener struct {
	net.Listener
	rec *connRecorder
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.rec.mu.Lock()
		l.rec.conns = append(l.rec.conns, c)
		l.rec.mu.Unlock()
	}
	return c, err
}

// TestInvokeRecoversAfterConnectionReset: a reset domain connection
// fails the invoke in flight — it is never re-sent, the domain may have
// run it — and the NEXT invoke redials and succeeds. (A deployment used
// to keep the dead connection and fail every later call.)
func TestInvokeRecoversAfterConnectionReset(t *testing.T) {
	var rec connRecorder
	dep, tk, _ := deployBLSWrapped(t, false, rec.wrap)
	req := blsapp.EncodeSignRequest(tk.Epoch, []byte("across a reset"))
	for i := 0; i < dep.NumDomains(); i++ {
		want, err := dep.Invoke(i, req)
		if err != nil {
			t.Fatal(err)
		}
		rec.resetAll()
		if _, err := dep.Invoke(i, req); err == nil {
			t.Fatalf("domain %d: invoke over a reset connection returned nil", i)
		}
		got, err := dep.Invoke(i, req)
		if err != nil {
			t.Fatalf("domain %d: invoke after the reset still fails: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("domain %d: share changed across the reset", i)
		}
		if dials, retries, _ := dep.conns[i].Stats(); dials != 2 || retries != 0 {
			t.Fatalf("domain %d: dials=%d retries=%d, want 2 dials (one redial) and no re-send", i, dials, retries)
		}
	}
}

// TestManagedDeploymentMatchesRawClient is the differential check for
// the deployment's own connections: on a fault-free link Invoke and
// InvokeBatch return exactly what a raw single-connection client gets,
// over one dial per domain and no retries.
func TestManagedDeploymentMatchesRawClient(t *testing.T) {
	dep, tk, _ := deployBLS(t, false)
	reqs := [][]byte{
		blsapp.EncodeSignRequest(tk.Epoch, []byte("first")),
		blsapp.EncodeSignRequest(tk.Epoch, []byte("second")),
	}
	for i := 0; i < dep.NumDomains(); i++ {
		raw, err := transport.Dial(dep.Domain(i).Addr())
		if err != nil {
			t.Fatal(err)
		}
		var want domain.InvokeResponse
		if err := raw.Call("invoke", domain.InvokeRequest{Request: reqs[0]}, &want); err != nil {
			t.Fatal(err)
		}
		var wantBatch domain.InvokeBatchResponse
		if err := raw.Call("invokebatch", domain.InvokeBatchRequest{Requests: reqs}, &wantBatch); err != nil {
			t.Fatal(err)
		}
		raw.Close()

		got, err := dep.Invoke(i, reqs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Response) {
			t.Fatalf("domain %d: Invoke differs from the raw client's response", i)
		}
		gotBatch, gotErrs, err := dep.InvokeBatch(i, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotBatch, wantBatch.Responses) || !reflect.DeepEqual(gotErrs, wantBatch.Errors) {
			t.Fatalf("domain %d: InvokeBatch differs from the raw client's response", i)
		}
		if dials, retries, rejected := dep.conns[i].Stats(); dials != 1 || retries != 0 || rejected != 0 {
			t.Fatalf("domain %d: dials=%d retries=%d rejected=%d, want 1/0/0", i, dials, retries, rejected)
		}
	}
}
