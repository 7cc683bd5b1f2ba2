package core

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

// TestRelabelledEnvelopeIsRejected: a TEE domain's attested status with
// its domain name rewritten to another TEE domain of the deployment does
// not verify, and neither does a misbehaviour proof that carries it. The
// two TEE domains run on one vendor's hardware, or on two vendors'; in
// the first case only the pinned platform tells them apart. Without the
// pins Deploy writes (a deployment file from before them) the relabelled
// envelope still verifies: that is the compatibility row DESIGN §5 keeps.
func TestRelabelledEnvelopeIsRejected(t *testing.T) {
	for name, vendors := range map[string][]tee.VendorID{
		"one-vendor":  {tee.VendorSimSGX},
		"two-vendors": {tee.VendorSimSGX, tee.VendorSimNitro},
	} {
		t.Run(name, func(t *testing.T) {
			dep, dev := deployOn(t, vendors)
			// Fork domains 1 and 2 onto two builds of version 2: both
			// attest log length 2 under different heads.
			for i, nops := range map[int]int{1: 1, 2: 2} {
				m := blsapp.Module()
				for ; nops > 0; nops-- {
					m.Functions[0].Code = append(m.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
				}
				if err := dep.PushUpdateTo(i, dev.PrepareUpdate(2, m.Encode()), false); err != nil {
					t.Fatal(err)
				}
			}
			params := dep.Params()
			for _, d := range params.Domains[1:] {
				if d.Vendor == "" || d.PlatformID == "" {
					t.Fatalf("Deploy left TEE domain %s unpinned", d.Name)
				}
			}
			c := dep.AuditClient()
			defer c.Close()
			own, err := c.FetchStatus("domain-2")
			if err != nil {
				t.Fatal(err)
			}
			other, err := c.FetchStatus("domain-1")
			if err != nil {
				t.Fatal(err)
			}
			if own.Resp.Status.LogLen != other.Resp.Status.LogLen || string(own.Resp.Status.LogHead) == string(other.Resp.Status.LogHead) {
				t.Fatal("the forked domains do not attest two heads at one log length")
			}
			relabelled := *other
			relabelled.Resp.Domain = "domain-2"
			if err := audit.VerifyStatusEnvelope(&params, other); err != nil {
				t.Fatalf("domain-1's own status: %v", err)
			}
			err = audit.VerifyStatusEnvelope(&params, &relabelled)
			if err == nil || !strings.Contains(err.Error(), "pinned") {
				t.Fatalf("domain-1's status relabelled domain-2: %v, want a platform pin mismatch", err)
			}
			proof := &audit.Misbehavior{Kind: audit.MisbehaviorEquivocation, Domain: "domain-2", StatusA: own, StatusB: &relabelled}
			if err := audit.VerifyMisbehavior(&params, proof); err == nil {
				t.Fatal("an equivocation proof carrying a relabelled envelope convicts domain-2")
			}

			unpinned := params
			unpinned.Domains = append([]audit.DomainInfo{}, params.Domains...)
			for i := range unpinned.Domains {
				unpinned.Domains[i].Vendor, unpinned.Domains[i].PlatformID = "", ""
			}
			if err := audit.VerifyStatusEnvelope(&unpinned, &relabelled); err != nil {
				t.Fatalf("an unpinned domain no longer verifies as before: %v", err)
			}
		})
	}
}

// deployOn deploys three domains with the BLS app, the TEE domains
// provisioned round-robin on the named vendors.
func deployOn(t *testing.T, ids []tee.VendorID) (*Deployment, *framework.Developer) {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	all, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var vendors []*tee.Vendor
	for _, id := range ids {
		vendors = append(vendors, all[id])
	}
	dep, err := Deploy(Config{
		NumDomains: 3,
		Developer:  dev,
		Vendors:    vendors,
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
		HostsFor: func(i int) map[string]*sandbox.HostFunc {
			return blsapp.Hosts(blsapp.NewShareStateWithKey(shares[i], tk, dev.PublicKey()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	return dep, dev
}
