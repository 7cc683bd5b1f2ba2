package deployfile

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/tee"
)

func testParams(t *testing.T) (audit.Params, *bls.ThresholdKey) {
	t.Helper()
	_, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	hostPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var m tee.Measurement
	m[0] = 0xab
	params := audit.Params{
		Roots:       roots,
		Measurement: m,
		Domains: []audit.DomainInfo{
			{Name: "domain-0", Addr: "127.0.0.1:1000", HasTEE: false, HostKey: hostPub},
			{Name: "domain-1", Addr: "127.0.0.1:1001", HasTEE: true},
		},
	}
	tk, _, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return params, tk
}

func TestRoundTrip(t *testing.T) {
	params, tk := testParams(t)
	file := FromParams(params, tk)
	path := filepath.Join(t.TempDir(), "deployment.json")
	if err := file.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	gotParams, err := loaded.Params()
	if err != nil {
		t.Fatal(err)
	}
	if gotParams.Measurement != params.Measurement {
		t.Fatal("measurement mismatch")
	}
	if len(gotParams.Roots) != len(params.Roots) {
		t.Fatal("roots mismatch")
	}
	for id, key := range params.Roots {
		if !gotParams.Roots[id].Equal(key) {
			t.Fatalf("root for %s mismatch", id)
		}
	}
	if len(gotParams.Domains) != 2 ||
		gotParams.Domains[0].Name != "domain-0" ||
		!gotParams.Domains[1].HasTEE {
		t.Fatal("domains mismatch")
	}
	if !gotParams.Domains[0].HostKey.Equal(params.Domains[0].HostKey) {
		t.Fatal("host key mismatch")
	}
	gotTk, err := loaded.ThresholdKey()
	if err != nil {
		t.Fatal(err)
	}
	if gotTk.T != tk.T || gotTk.N != tk.N {
		t.Fatal("threshold shape mismatch")
	}
	if !gotTk.GroupKey.Equal(&tk.GroupKey) {
		t.Fatal("group key mismatch")
	}
	for i := range tk.ShareKeys {
		if !gotTk.ShareKeys[i].Equal(&tk.ShareKeys[i]) {
			t.Fatalf("share key %d mismatch", i)
		}
	}
	if gotTk.Epoch != tk.Epoch {
		t.Fatal("epoch mismatch")
	}
	if len(gotTk.Commitment) != len(tk.Commitment) {
		t.Fatal("commitment length mismatch")
	}
	for i := range tk.Commitment {
		if !gotTk.Commitment[i].Equal(&tk.Commitment[i]) {
			t.Fatalf("commitment term %d mismatch", i)
		}
	}
}

// TestRefreshedKeyRoundTrip: a rotated key (epoch 1) survives the file,
// so the ceremony's commit step — rewriting the parameters file —
// preserves everything a client needs to sign at the new epoch.
func TestRefreshedKeyRoundTrip(t *testing.T) {
	params, tk := testParams(t)
	ref, err := bls.NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deployment.json")
	if err := FromParams(params, ref.NewKey).Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.ThresholdKey()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 {
		t.Fatalf("epoch %d after round trip", got.Epoch)
	}
	if !got.GroupKey.Equal(&tk.GroupKey) {
		t.Fatal("group key changed across refresh round trip")
	}
	// The reloaded key is refresh-capable (commitment intact).
	if _, err := bls.NewRefresh(got); err != nil {
		t.Fatalf("reloaded key cannot seed the next ceremony: %v", err)
	}
}

// TestPendingRefreshRoundTrip covers the coordinator's crash file: the
// exact ceremony package (id, epoch, secret deltas, rotated key) must
// survive a write/read cycle, a missing file must read as "none", and
// removal must be idempotent.
func TestPendingRefreshRoundTrip(t *testing.T) {
	_, tk := testParams(t)
	ref, err := bls.NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deployment.json.refresh-pending")

	if none, err := ReadRefresh(path); err != nil || none != nil {
		t.Fatalf("missing pending file: %v, %v", none, err)
	}
	if err := WriteRefresh(path, ref); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRefresh(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CeremonyID != ref.CeremonyID || got.NewEpoch != ref.NewEpoch {
		t.Fatal("ceremony identity mangled")
	}
	if len(got.Deltas) != len(ref.Deltas) {
		t.Fatal("delta count mismatch")
	}
	for i := range ref.Deltas {
		if got.Deltas[i].Index != ref.Deltas[i].Index || !got.Deltas[i].Delta.Equal(&ref.Deltas[i].Delta) {
			t.Fatalf("delta %d mangled", i)
		}
	}
	if !got.NewKey.GroupKey.Equal(&tk.GroupKey) || got.NewKey.Epoch != ref.NewEpoch {
		t.Fatal("rotated key mangled")
	}
	if err := RemoveRefresh(path); err != nil {
		t.Fatal(err)
	}
	if err := RemoveRefresh(path); err != nil {
		t.Fatalf("second removal: %v", err)
	}
	if none, err := ReadRefresh(path); err != nil || none != nil {
		t.Fatal("pending file survived removal")
	}
}

func TestNoThresholdKey(t *testing.T) {
	params, _ := testParams(t)
	file := FromParams(params, nil)
	tk, err := file.ThresholdKey()
	if err != nil || tk != nil {
		t.Fatal("absent threshold key should decode to nil")
	}
}

func TestCorruptFileRejected(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	params, tk := testParams(t)
	file := FromParams(params, tk)

	bad := *file
	bad.Measurement = "zz"
	if _, err := bad.Params(); err == nil {
		t.Fatal("bad measurement accepted")
	}
	bad = *file
	bad.Roots = map[string]string{"sim-sgx": "abcd"}
	if _, err := bad.Params(); err == nil {
		t.Fatal("short root key accepted")
	}
	bad = *file
	bad.Threshold = &ThresholdEntry{T: 2, N: 3, GroupKey: "not-hex"}
	if _, err := bad.ThresholdKey(); err == nil {
		t.Fatal("bad group key accepted")
	}
	// Group key must be a valid subgroup point.
	bad = *file
	bad.Threshold = &ThresholdEntry{T: 2, N: 3, GroupKey: "00"}
	if _, err := bad.ThresholdKey(); err == nil {
		t.Fatal("malformed point accepted")
	}
}

// TestPlatformPinRoundTrip: a TEE domain's platform pin survives the
// file; an unpinned domain is written as before, with no pin keys at
// all; a pin on a non-TEE domain, or a platform without its vendor, is
// refused.
func TestPlatformPinRoundTrip(t *testing.T) {
	params, tk := testParams(t)
	params.Domains = append(params.Domains, audit.DomainInfo{Name: "domain-2", Addr: "127.0.0.1:1002", HasTEE: true})
	params.Domains[1].Vendor, params.Domains[1].PlatformID = tee.VendorSimSGX, "host-domain-1"
	file := FromParams(params, tk)
	raw, err := json.Marshal(file.Domains[2])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("vendor")) || bytes.Contains(raw, []byte("platform")) {
		t.Fatalf("unpinned domain written with pin keys: %s", raw)
	}
	got, err := file.Params()
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Domains[1]; d.Vendor != tee.VendorSimSGX || d.PlatformID != "host-domain-1" {
		t.Fatalf("pin read back as %q/%q", d.Vendor, d.PlatformID)
	}
	if d := got.Domains[2]; d.Vendor != "" || d.PlatformID != "" {
		t.Fatalf("unpinned domain read back pinned: %q/%q", d.Vendor, d.PlatformID)
	}
	for name, mutate := range map[string]func(*DomainEntry){
		"pin on a host-key domain": func(d *DomainEntry) { *d = file.Domains[0]; d.Vendor, d.PlatformID = "sim-sgx", "h" },
		"platform without vendor":  func(d *DomainEntry) { *d = file.Domains[2]; d.PlatformID = "h" },
		"vendor without platform":  func(d *DomainEntry) { *d = file.Domains[2]; d.Vendor = "sim-sgx" },
	} {
		bad := *file
		bad.Domains = append([]DomainEntry{}, file.Domains...)
		mutate(&bad.Domains[0])
		if _, err := bad.Params(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
