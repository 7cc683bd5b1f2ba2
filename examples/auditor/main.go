// Command auditor demonstrates the paper's central guarantee (§3.3):
// clients detect when a deployment does not run the expected code, and
// obtain a publicly verifiable proof of misbehavior.
//
// Scenario: a 3-domain BLS deployment is bootstrapped and audited clean.
// The developer pushes an update to one domain first: the audit flags
// the disagreement, but an honest rollout in progress looks the same,
// so it convicts nobody. Once the rollout completes the audit is clean.
// Then the developer ships two different builds as one version to two
// domains: that fork is a proof a third party verifies using only the
// deployment's public parameters.
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/core"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

func main() {
	log.SetFlags(0)
	fmt.Println("== auditing a distributed-trust deployment ==")

	dev, err := framework.NewDeveloper()
	if err != nil {
		log.Fatalf("developer: %v", err)
	}
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		log.Fatalf("ecosystem: %v", err)
	}
	var vendorList []*tee.Vendor
	for _, id := range tee.AllVendorIDs() {
		vendorList = append(vendorList, vendors[id])
	}
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		log.Fatalf("keygen: %v", err)
	}
	dep, err := core.Deploy(core.Config{
		NumDomains: 3,
		Developer:  dev,
		Vendors:    vendorList,
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
		HostsFor: func(i int) map[string]*sandbox.HostFunc {
			return blsapp.Hosts(blsapp.NewShareState(shares[i]))
		},
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer dep.Close()

	auditor := dep.AuditClient()
	defer auditor.Close()

	report := mustAudit(auditor)
	fmt.Printf("initial audit: consistent=%v, digest=%s...\n",
		report.Consistent, report.CurrentDigest()[:12])
	if !report.Consistent {
		log.Fatal("fresh deployment should be consistent")
	}

	// A rollout under way: version 2 reaches domain-1 first.
	fmt.Println("\n-- developer pushes v2 to domain-1 first --")
	su := dev.PrepareUpdate(2, build(1).Encode())
	if err := dep.PushUpdateTo(1, su, false); err != nil {
		log.Fatalf("push: %v", err)
	}
	if report = mustAudit(auditor); report.Consistent {
		log.Fatal("BUG: divergent deployment passed the audit")
	}
	if len(report.Proofs) != 0 {
		log.Fatal("BUG: a rollout in progress convicted a domain")
	}
	fmt.Println("no proof: an honest rollout in progress looks exactly like this")

	fmt.Println("\n-- developer completes the rollout --")
	if err := dep.PushUpdateTo(0, su, false); err != nil {
		log.Fatalf("push: %v", err)
	}
	if err := dep.PushUpdateTo(2, su, false); err != nil {
		log.Fatalf("push: %v", err)
	}
	if report = mustAudit(auditor); !report.Consistent {
		log.Fatalf("BUG: completed rollout still inconsistent: %v", report.Findings)
	}
	fmt.Println("audit: consistent again")

	// The malicious update: two different builds released as version 3.
	fmt.Println("\n-- developer ships two different v3 builds to domain-0 and domain-1 --")
	for i, nops := range []int{2, 3} {
		if err := dep.PushUpdateTo(i, dev.PrepareUpdate(3, build(nops).Encode()), false); err != nil {
			log.Fatalf("push: %v", err)
		}
	}
	if report = mustAudit(auditor); len(report.Proofs) == 0 {
		log.Fatal("BUG: no misbehavior proofs produced")
	}

	// Hand the first proof to a third party: it re-verifies every
	// signature and hash with only the public parameters.
	proof := report.Proofs[0]
	blob, err := json.Marshal(&proof)
	if err != nil {
		log.Fatalf("marshal: %v", err)
	}
	fmt.Printf("\nmisbehavior proof (kind=%s, %d bytes serialized) handed to a third party\n",
		proof.Kind, len(blob))

	var thirdPartyCopy audit.Misbehavior
	if err := json.Unmarshal(blob, &thirdPartyCopy); err != nil {
		log.Fatalf("unmarshal: %v", err)
	}
	params := dep.Params()
	if err := audit.VerifyMisbehavior(&params, &thirdPartyCopy); err != nil {
		log.Fatalf("BUG: third party rejected a valid proof: %v", err)
	}
	fmt.Println("third party verified the proof: domains demonstrably ran different code as one version")
	fmt.Println("the fork remains permanently visible in every domain's append-only log")
}

// build is the BLS module padded with nops no-ops: each count is a
// different build.
func build(nops int) *sandbox.Module {
	m := blsapp.Module()
	for ; nops > 0; nops-- {
		m.Functions[0].Code = append(m.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	}
	return m
}

// mustAudit runs one audit and prints its findings.
func mustAudit(c *audit.Client) *audit.Report {
	report, err := c.Audit()
	if err != nil {
		log.Fatalf("audit: %v", err)
	}
	for _, f := range report.Findings {
		fmt.Printf("  finding: %s\n", f)
	}
	return report
}
