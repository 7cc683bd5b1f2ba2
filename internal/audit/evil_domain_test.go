package audit

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
	"repro/internal/transport"
)

// evilDomain serves the domain protocol but flips between two framework
// instances (sharing one enclave) after the first audit: the classic
// equivocation attack, mounted against the real client over the real
// wire protocol.
type evilDomain struct {
	name    string
	dev     *framework.Developer
	enclave *tee.Enclave
	fwA     *framework.Framework
	fwB     *framework.Framework
	flipped atomic.Bool
	// splitHistory serves the history of the framework the status does
	// not come from.
	splitHistory atomic.Bool
	server       *transport.Server
	addr         string
}

func startEvilDomain(t *testing.T) (*evilDomain, Params) {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	v, err := tee.NewVendor(tee.VendorSimNitro)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := v.Provision("evil-host", framework.Measure(dev.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	fwA, err := framework.New(dev.PublicKey(), enclave, nil)
	if err != nil {
		t.Fatal(err)
	}
	fwB, err := framework.New(dev.PublicKey(), enclave, nil)
	if err != nil {
		t.Fatal(err)
	}
	mbA := sandbox.MustAssemble(echoAppSrc).Encode()
	mB := sandbox.MustAssemble(echoAppSrc)
	mB.Functions[0].Code = append(mB.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mbB := mB.Encode()
	if err := fwA.Install(1, mbA, dev.SignUpdate(1, mbA)); err != nil {
		t.Fatal(err)
	}
	if err := fwB.Install(1, mbB, dev.SignUpdate(1, mbB)); err != nil {
		t.Fatal(err)
	}

	ed := &evilDomain{name: "evil", dev: dev, enclave: enclave, fwA: fwA, fwB: fwB, server: transport.NewServer()}
	ed.server.Handle("status", func(body json.RawMessage) (any, error) {
		var req domain.StatusRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		as := ed.statusFramework().AttestedStatus(req.Nonce)
		return domain.StatusResponse{Domain: ed.name, Status: as.Status, Quote: as.Quote}, nil
	})
	ed.server.Handle("history", func(body json.RawMessage) (any, error) {
		var req domain.HistoryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		_, records, _ := ed.historyFramework().Snapshot(0)
		return domain.HistoryResponse{
			Domain:  ed.name,
			Records: records,
			Quote:   enclave.GenerateQuote(domain.ReportData(nil, domain.HistoryBindingFrom(0, records, req.Nonce))),
		}, nil
	})
	// audit is status and history in one reply under one quote, even
	// when splitHistory makes the two disagree.
	ed.server.Handle("audit", func(body json.RawMessage) (any, error) {
		var req domain.AuditRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		st := ed.statusFramework().Status()
		_, records, _ := ed.historyFramework().Snapshot(0)
		srd := framework.StatusReportData(req.StatusNonce, &st)
		rd := domain.ReportData(srd[:32], domain.HistoryBindingFrom(0, records, req.HistoryNonce))
		return domain.AuditResponse{Domain: ed.name, Status: st, Records: records, Quote: enclave.GenerateQuote(rd)}, nil
	})
	addr, err := ed.server.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ed.server.Close() })
	ed.addr = addr

	params := Params{
		Roots:       tee.RootSet{tee.VendorSimNitro: v.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []DomainInfo{{Name: "evil", Addr: addr, HasTEE: true}},
	}
	return ed, params
}

// statusFramework is the instance the domain's statuses come from.
func (ed *evilDomain) statusFramework() *framework.Framework {
	if ed.flipped.Load() {
		return ed.fwB
	}
	return ed.fwA
}

// historyFramework is the instance the domain's histories come from.
func (ed *evilDomain) historyFramework() *framework.Framework {
	if ed.flipped.Load() != ed.splitHistory.Load() {
		return ed.fwB
	}
	return ed.fwA
}

// TestClientDetectsEquivocationAcrossAudits drives the real audit client
// against a domain that equivocates between audits: the client's
// remembered state must turn the flip into a verifiable proof.
func TestClientDetectsEquivocationAcrossAudits(t *testing.T) {
	ed, params := startEvilDomain(t)
	c := NewClient(params)
	defer c.Close()

	report1, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report1.Consistent {
		t.Fatalf("first view should verify in isolation: %v", report1.Findings)
	}

	ed.flipped.Store(true)
	report2, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report2.Consistent {
		t.Fatal("equivocating domain passed the second audit")
	}
	var proof *Misbehavior
	for i := range report2.Proofs {
		if report2.Proofs[i].Kind == MisbehaviorEquivocation {
			proof = &report2.Proofs[i]
		}
	}
	if proof == nil {
		t.Fatalf("no equivocation proof; findings: %v", report2.Findings)
	}
	if err := VerifyMisbehavior(&params, proof); err != nil {
		t.Fatalf("client-produced equivocation proof rejected: %v", err)
	}
	// The proof survives serialization to a third party.
	blob, err := json.Marshal(proof)
	if err != nil {
		t.Fatal(err)
	}
	var copied Misbehavior
	if err := json.Unmarshal(blob, &copied); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMisbehavior(&params, &copied); err != nil {
		t.Fatalf("serialized proof rejected: %v", err)
	}
}
