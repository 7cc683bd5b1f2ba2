package core

import (
	"net"
	"testing"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

// deployBLS stands up the full paper deployment: 3 trust domains (domain 0
// without TEE), heterogeneous vendors, the BLS threshold app with a 2-of-3
// key split.
func deployBLS(t *testing.T, frozen bool) (*Deployment, *bls.ThresholdKey, *framework.Developer) {
	t.Helper()
	return deployBLSWrapped(t, frozen, nil)
}

// deployBLSWrapped is deployBLS with every domain's RPC listener passed
// through wrap (nil = plain TCP).
func deployBLSWrapped(t *testing.T, frozen bool, wrap func(net.Listener) net.Listener) (*Deployment, *bls.ThresholdKey, *framework.Developer) {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var vendorList []*tee.Vendor
	for _, id := range tee.AllVendorIDs() {
		vendorList = append(vendorList, vendors[id])
	}
	dep, err := Deploy(Config{
		NumDomains: 3,
		Developer:  dev,
		Vendors:    vendorList,
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
		HostsFor: func(i int) map[string]*sandbox.HostFunc {
			return blsapp.Hosts(blsapp.NewShareStateWithKey(shares[i], tk, dev.PublicKey()))
		},
		Frozen:       frozen,
		WrapListener: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	return dep, tk, dev
}

func TestDeployAndThresholdSign(t *testing.T) {
	dep, tk, _ := deployBLS(t, false)
	if dep.NumDomains() != 3 {
		t.Fatal("wrong domain count")
	}
	if dep.Domain(0).HasTEE() {
		t.Fatal("domain 0 must not have a TEE")
	}
	if !dep.Domain(1).HasTEE() || !dep.Domain(2).HasTEE() {
		t.Fatal("domains 1,2 must have TEEs")
	}
	msg := []byte("end-to-end threshold signature")
	sig, err := blsapp.ThresholdSign(dep, tk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bls.Verify(&tk.GroupKey, msg, sig) {
		t.Fatal("deployment signature invalid")
	}
}

func TestDeployThresholdSignBatch(t *testing.T) {
	// End-to-end batched path: ThresholdSignBatch detects that Deployment
	// is a BatchInvoker and ships all messages per domain through the
	// "invokebatch" RPC in one frame.
	dep, tk, _ := deployBLS(t, false)
	msgs := [][]byte{
		[]byte("batched rpc message 0"),
		[]byte("batched rpc message 1"),
		[]byte("batched rpc message 2"),
		[]byte("batched rpc message 3"),
	}
	sigs, err := blsapp.ThresholdSignBatch(dep, tk, msgs)
	if err != nil {
		t.Fatal(err)
	}
	pks := make([]*bls.PublicKey, len(msgs))
	for i := range pks {
		pks[i] = &tk.GroupKey
	}
	if !bls.VerifyBatch(pks, msgs, sigs) {
		t.Fatal("batched deployment signatures invalid")
	}
	// The raw batched invoke surface answers positionally; a request the
	// application rejects must not poison its neighbors.
	good := blsapp.EncodeSignRequest(0, []byte("ok"))
	resps, errs, err := dep.InvokeBatch(1, [][]byte{good, {0xff, 0xee}, good})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d batched responses", len(resps))
	}
	for _, i := range []int{0, 2} {
		if len(errs) > i && errs[i] != "" {
			t.Fatalf("good batched request %d errored: %s", i, errs[i])
		}
		if _, err := blsapp.DecodeSignResponse(resps[i]); err != nil {
			t.Fatalf("good batched request %d: %v", i, err)
		}
	}
	if _, err := blsapp.DecodeSignResponse(resps[1]); err == nil && (len(errs) < 2 || errs[1] == "") {
		t.Fatal("malformed batched request produced a valid share")
	}
}

func TestDeployAuditClean(t *testing.T) {
	dep, _, _ := deployBLS(t, false)
	c := dep.AuditClient()
	defer c.Close()
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Consistent {
		t.Fatalf("fresh deployment flagged: %v", report.Findings)
	}
	if !report.ExpectedDigest(blsapp.Module().Digest()) {
		t.Fatal("deployment does not run the published module")
	}
}

func TestUpdateEverywhereStaysConsistent(t *testing.T) {
	dep, tk, dev := deployBLS(t, false)
	m2 := blsapp.Module()
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	su := dev.PrepareUpdate(2, m2.Encode())
	if err := dep.PushUpdate(su); err != nil {
		t.Fatal(err)
	}
	c := dep.AuditClient()
	defer c.Close()
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Consistent {
		t.Fatalf("fully updated deployment flagged: %v", report.Findings)
	}
	if !report.ExpectedDigest(m2.Digest()) {
		t.Fatal("updated digest not reflected")
	}
	// The application still works after the update (host-side state, i.e.
	// the key shares, survived the code swap).
	msg := []byte("post-update signature")
	sig, err := blsapp.ThresholdSign(dep, tk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bls.Verify(&tk.GroupKey, msg, sig) {
		t.Fatal("post-update signature invalid")
	}
}

func TestPartialUpdateDetected(t *testing.T) {
	dep, _, dev := deployBLS(t, false)
	m2 := blsapp.Module()
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	su := dev.PrepareUpdate(2, m2.Encode())
	// Malicious/buggy rollout: only domain 1 updated.
	if err := dep.PushUpdateTo(1, su, false); err != nil {
		t.Fatal(err)
	}
	c := dep.AuditClient()
	defer c.Close()
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.Consistent {
		t.Fatal("partial rollout passed audit")
	}
	verified := 0
	params := dep.Params()
	for i := range report.Proofs {
		if err := audit.VerifyMisbehavior(&params, &report.Proofs[i]); err != nil {
			t.Fatalf("audit emitted unverifiable proof %s: %v", report.Proofs[i].Kind, err)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no proofs emitted")
	}
	// Completing the rollout restores consistency.
	if err := dep.PushUpdateTo(0, su, false); err != nil {
		t.Fatal(err)
	}
	if err := dep.PushUpdateTo(2, su, false); err != nil {
		t.Fatal(err)
	}
	report2, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report2.Consistent {
		t.Fatalf("completed rollout still flagged: %v", report2.Findings)
	}
}

func TestStagedUpdateVisibleToClients(t *testing.T) {
	dep, _, dev := deployBLS(t, false)
	m2 := blsapp.Module()
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	su := dev.PrepareUpdate(2, m2.Encode())
	for i := 0; i < dep.NumDomains(); i++ {
		if err := dep.PushUpdateTo(i, su, true); err != nil {
			t.Fatal(err)
		}
	}
	c := dep.AuditClient()
	defer c.Close()
	env, err := c.FetchStatus("domain-1")
	if err != nil {
		t.Fatal(err)
	}
	if env.Resp.Status.Pending == nil || env.Resp.Status.Pending.Version != 2 {
		t.Fatal("clients cannot see the pending update")
	}
	for i := 0; i < dep.NumDomains(); i++ {
		if err := dep.Activate(i); err != nil {
			t.Fatal(err)
		}
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Consistent {
		t.Fatalf("activated deployment flagged: %v", report.Findings)
	}
}

func TestFrozenDeploymentRejectsUpdates(t *testing.T) {
	dep, _, dev := deployBLS(t, true)
	m2 := blsapp.Module()
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	su := dev.PrepareUpdate(2, m2.Encode())
	if err := dep.PushUpdate(su); err == nil {
		t.Fatal("frozen deployment accepted an update")
	}
}

func TestDeployValidation(t *testing.T) {
	dev, _ := framework.NewDeveloper()
	vendors, roots, _ := tee.NewSimulatedEcosystem()
	var vendorList []*tee.Vendor
	for _, id := range tee.AllVendorIDs() {
		vendorList = append(vendorList, vendors[id])
	}
	base := Config{
		NumDomains: 3,
		Developer:  dev,
		Vendors:    vendorList,
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
	}
	bad := base
	bad.NumDomains = 1
	if _, err := Deploy(bad); err == nil {
		t.Fatal("single-domain deployment accepted")
	}
	bad = base
	bad.Developer = nil
	if _, err := Deploy(bad); err == nil {
		t.Fatal("nil developer accepted")
	}
	bad = base
	bad.Vendors = nil
	if _, err := Deploy(bad); err == nil {
		t.Fatal("no vendors accepted")
	}
	bad = base
	bad.AppModule = nil
	if _, err := Deploy(bad); err == nil {
		t.Fatal("missing app accepted")
	}
}
