package domain

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
	"repro/internal/transport"
)

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
    push 69632
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

func startDomain(t testing.TB, withTEE bool) (*Domain, *framework.Developer, tee.RootSet) {
	t.Helper()
	return startWrapped(t, withTEE, nil)
}

// startWrapped starts a domain whose RPC listener is wrapped by wrap
// (nil: unwrapped) and installs the echo application.
func startWrapped(t testing.TB, withTEE bool, wrap func(net.Listener) net.Listener) (*Domain, *framework.Developer, tee.RootSet) {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	var vendor *tee.Vendor
	roots := tee.RootSet{}
	if withTEE {
		vendor, err = tee.NewVendor(tee.VendorSimNitro)
		if err != nil {
			t.Fatal(err)
		}
		roots[tee.VendorSimNitro] = vendor.RootKey()
	}
	d, err := Start(Config{
		Name:         "test-domain",
		Vendor:       vendor,
		DeveloperKey: dev.PublicKey(),
		WrapListener: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	mb := sandbox.MustAssemble(echoAppSrc).Encode()
	if err := d.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	return d, dev, roots
}

func dial(t *testing.T, d *Domain) *transport.Client {
	t.Helper()
	c, err := transport.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTEEDomainInvokeThroughSockets(t *testing.T) {
	d, _, _ := startDomain(t, true)
	if !d.HasTEE() {
		t.Fatal("expected TEE domain")
	}
	c := dial(t, d)
	var resp InvokeResponse
	req := InvokeRequest{Request: []byte("over two extra sockets")}
	if err := c.Call("invoke", req, &resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Response, req.Request) {
		t.Fatalf("echo mismatch: %q", resp.Response)
	}
	// Repeated invokes reuse the in-enclave app connection.
	for i := 0; i < 5; i++ {
		if err := c.Call("invoke", req, &resp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDomainZeroInvoke(t *testing.T) {
	d, _, _ := startDomain(t, false)
	if d.HasTEE() {
		t.Fatal("expected non-TEE domain")
	}
	c := dial(t, d)
	var resp InvokeResponse
	if err := c.Call("invoke", InvokeRequest{Request: []byte("direct")}, &resp); err != nil {
		t.Fatal(err)
	}
	if string(resp.Response) != "direct" {
		t.Fatal("echo mismatch")
	}
}

func TestStatusAttestationOverNetwork(t *testing.T) {
	d, dev, roots := startDomain(t, true)
	c := dial(t, d)
	nonce := []byte("fresh nonce 42")
	var resp StatusResponse
	if err := c.Call("status", StatusRequest{Nonce: nonce}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Quote == nil {
		t.Fatal("TEE domain returned no quote")
	}
	if err := tee.VerifyQuote(roots, resp.Quote); err != nil {
		t.Fatal(err)
	}
	if resp.Quote.Measurement != framework.Measure(dev.PublicKey()) {
		t.Fatal("measurement mismatch")
	}
	rd := framework.StatusReportData(nonce, &resp.Status)
	if resp.Quote.ReportData != rd {
		t.Fatal("nonce/status not bound")
	}
	if resp.Status.Version != 1 || resp.Status.LogLen != 1 {
		t.Fatalf("unexpected status %+v", resp.Status)
	}
	if resp.Status.Counter != 1 {
		t.Fatalf("counter = %d, want 1 after install", resp.Status.Counter)
	}
}

func TestDomainZeroStatusHostSigned(t *testing.T) {
	d, _, _ := startDomain(t, false)
	c := dial(t, d)
	nonce := []byte("n0")
	var resp StatusResponse
	if err := c.Call("status", StatusRequest{Nonce: nonce}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Quote != nil {
		t.Fatal("domain 0 returned a quote")
	}
	if len(resp.HostKey) == 0 || len(resp.HostSig) == 0 {
		t.Fatal("domain 0 response unauthenticated")
	}
	if !bytes.Equal(resp.HostKey, d.HostKey()) {
		t.Fatal("host key mismatch")
	}
}

func TestHistoryOverNetwork(t *testing.T) {
	d, dev, roots := startDomain(t, true)
	// Push an update so history has two entries.
	m2 := sandbox.MustAssemble(echoAppSrc)
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mb2 := m2.Encode()
	c := dial(t, d)
	if err := c.Call("update", UpdateRequest{Version: 2, ModuleBytes: mb2, DevSig: dev.SignUpdate(2, mb2)}, nil); err != nil {
		t.Fatal(err)
	}
	nonce := []byte("hist nonce")
	var resp HistoryResponse
	if err := c.Call("history", HistoryRequest{Nonce: nonce}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != 2 {
		t.Fatalf("history has %d records, want 2", len(resp.Records))
	}
	if resp.Quote == nil {
		t.Fatal("history not attested")
	}
	if err := tee.VerifyQuote(roots, resp.Quote); err != nil {
		t.Fatal(err)
	}
	if resp.Quote.ReportData != ReportData(nil, HistoryBindingFrom(0, resp.Records, nonce)) {
		t.Fatal("history binding mismatch")
	}
}

func TestUpdateOverNetworkStaged(t *testing.T) {
	d, dev, _ := startDomain(t, true)
	m2 := sandbox.MustAssemble(echoAppSrc)
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mb2 := m2.Encode()
	c := dial(t, d)
	if err := c.Call("update", UpdateRequest{Version: 2, ModuleBytes: mb2, DevSig: dev.SignUpdate(2, mb2), StageOnly: true}, nil); err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := c.Call("status", StatusRequest{Nonce: []byte("x")}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status.Pending == nil || st.Status.Pending.Version != 2 {
		t.Fatal("staged update not visible")
	}
	if err := c.Call("activate", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	var st2 StatusResponse
	if err := c.Call("status", StatusRequest{Nonce: []byte("y")}, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Status.Version != 2 || st2.Status.Pending != nil {
		t.Fatal("activation did not take effect")
	}
	_ = d
}

func TestUpdateRejectedOverNetwork(t *testing.T) {
	d, _, _ := startDomain(t, true)
	mallory, _ := framework.NewDeveloper()
	mb := sandbox.MustAssemble(echoAppSrc).Encode()
	c := dial(t, d)
	err := c.Call("update", UpdateRequest{Version: 2, ModuleBytes: mb, DevSig: mallory.SignUpdate(2, mb)}, nil)
	if err == nil {
		t.Fatal("foreign update accepted over network")
	}
	_ = d
}

func TestConfigValidation(t *testing.T) {
	dev, _ := framework.NewDeveloper()
	if _, err := Start(Config{DeveloperKey: dev.PublicKey()}); err == nil {
		t.Fatal("nameless domain accepted")
	}
}
