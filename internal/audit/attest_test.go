package audit

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"testing"

	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

// TestBadHistoryNeedsOneAttestation: a status read before an honest
// update and a full history read after it are each authentic, and the
// history does not chain to that status's head — yet they are two
// states, not one lie. Only a pair attested together convicts.
func TestBadHistoryNeedsOneAttestation(t *testing.T) {
	for _, name := range []string{"domain-0", "domain-1"} {
		t.Run(name, func(t *testing.T) {
			td := newTestDeployment(t)
			c := NewClient(td.params)
			defer c.Close()
			st, err := c.FetchStatus(name)
			if err != nil {
				t.Fatal(err)
			}
			td.push(t, 2)
			hist, err := c.FetchHistory(name)
			if err != nil {
				t.Fatal(err)
			}
			forged := &Misbehavior{Kind: MisbehaviorBadHistory, Domain: name, StatusA: st, HistoryA: hist}
			if err := VerifyMisbehavior(&td.params, forged); err == nil {
				t.Fatalf("a status read before an honest update and a history read after it convict %s", name)
			}
		})
	}

	t.Run("split-history", func(t *testing.T) {
		ed, params := startEvilDomain(t)
		ed.splitHistory.Store(true)
		c := NewClient(params)
		defer c.Close()
		r, err := c.Audit()
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.Proofs {
			p := &r.Proofs[i]
			if p.Kind != MisbehaviorBadHistory {
				continue
			}
			if !bytes.Equal(p.StatusA.Resp.Quote.Signature, p.HistoryA.Resp.Quote.Signature) {
				t.Fatal("the bad-history proof's status and history carry two quotes")
			}
			if err := VerifyMisbehavior(&params, p); err != nil {
				t.Fatalf("a history attested with a status it contradicts no longer convicts: %v", err)
			}
			return
		}
		t.Fatalf("no bad-history proof; findings %q", r.Findings)
	})
}

// TestAuditAttestsEachDomainOnce: the status and the history an audit
// keeps for one domain share one signature, so a 3-domain audit holds
// 3 attestations (each domain signed once, the client verified once).
func TestAuditAttestsEachDomainOnce(t *testing.T) {
	td := newTestDeployment(t)
	c := NewClient(td.params)
	defer c.Close()
	r, err := c.Audit()
	if err != nil || !r.Consistent {
		t.Fatalf("%v %+v", err, r)
	}
	sigs := map[string]bool{}
	for _, da := range r.Domains {
		st, h := signatureOf(&da.Status.Resp), signatureOfHistory(&da.History.Resp)
		if len(st) == 0 || !bytes.Equal(st, h) {
			t.Fatalf("%s: status signature %x, history signature %x, want one shared", da.Info.Name, st, h)
		}
		sigs[string(st)] = true
	}
	if len(sigs) != 3 {
		t.Fatalf("a 3-domain audit holds %d attestations, want 3", len(sigs))
	}
}

func signatureOf(r *domain.StatusResponse) []byte {
	if r.Quote != nil {
		return r.Quote.Signature
	}
	return r.HostSig
}

func signatureOfHistory(r *domain.HistoryResponse) []byte {
	if r.Quote != nil {
		return r.Quote.Signature
	}
	return r.HostSig
}

// layoutFixture attests hand-built report data as a TEE domain ("tee")
// and as domain 0 ("host"), from two frameworks whose histories differ.
type layoutFixture struct {
	params   Params
	enclave  *tee.Enclave
	hostPriv ed25519.PrivateKey
	fwA, fwB map[string]*framework.Framework // by domain name
}

func newLayoutFixture(t *testing.T) *layoutFixture {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	v, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := v.Provision("layout-host", framework.Measure(dev.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	hostPub, hostPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	x := &layoutFixture{
		params: Params{
			Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
			Measurement: framework.Measure(dev.PublicKey()),
			Domains:     []DomainInfo{{Name: "tee", HasTEE: true}, {Name: "host", HostKey: hostPub}},
		},
		enclave:  enclave,
		hostPriv: hostPriv,
		fwA:      map[string]*framework.Framework{},
		fwB:      map[string]*framework.Framework{},
	}
	mA := sandbox.MustAssemble(echoAppSrc).Encode()
	mB := sandbox.MustAssemble(echoAppSrc)
	mB.Functions[0].Code = append(mB.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mbB := mB.Encode()
	for _, d := range []string{"tee", "host"} {
		var e *tee.Enclave
		if d == "tee" {
			e = enclave
		}
		for _, side := range []struct {
			fws map[string]*framework.Framework
			mb  []byte
		}{{x.fwA, mA}, {x.fwB, mbB}} {
			fw, err := framework.New(dev.PublicKey(), e, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fw.Install(1, side.mb, dev.SignUpdate(1, side.mb)); err != nil {
				t.Fatal(err)
			}
			side.fws[d] = fw
		}
	}
	return x
}

// pair attests fw's status and histFw's full history as domain d under
// ONE attestation over layout(status binding, history binding), and
// returns the two envelopes sharing it.
func (x *layoutFixture) pair(d string, fw, histFw *framework.Framework, layout func(s, h []byte) [64]byte) (*AttestedStatusEnvelope, *AttestedHistoryEnvelope) {
	st := &AttestedStatusEnvelope{Nonce: []byte("status nonce"), Resp: domain.StatusResponse{Domain: d, Status: fw.Status()}}
	_, records, _ := histFw.Snapshot(0)
	h := &AttestedHistoryEnvelope{Nonce: []byte("history nonce"), Resp: domain.HistoryResponse{Domain: d, Records: records}}
	srd := framework.StatusReportData(st.Nonce, &st.Resp.Status)
	rd := layout(srd[:32], domain.HistoryBindingFrom(0, h.Resp.Records, h.Nonce))
	if d == "tee" {
		q := x.enclave.GenerateQuote(rd)
		st.Resp.Quote, h.Resp.Quote = q, q
		return st, h
	}
	sig := ed25519.Sign(x.hostPriv, rd[:])
	key := x.params.Domains[1].HostKey
	st.Resp.HostKey, st.Resp.HostSig, st.Resp.HostReport = key, sig, rd[:]
	h.Resp.HostKey, h.Resp.HostSig, h.Resp.HostReport = key, sig, rd[:]
	return st, h
}

func together(s, h []byte) [64]byte      { return domain.ReportData(s, h) }
func swapped(s, h []byte) [64]byte       { return domain.ReportData(h, s) }
func statusOnly(s, _ []byte) [64]byte    { return domain.ReportData(s, nil) }
func historyOnly(_, h []byte) [64]byte   { return domain.ReportData(nil, h) }
func parentHistory(_, h []byte) [64]byte { return domain.ReportData(h, nil) }

// TestReportDataLayout: the status binding lives in rd[0:32] and the
// history binding in rd[32:64]; each verifier refuses its binding in the
// other half, and a bad-history proof needs one attestation under both.
func TestReportDataLayout(t *testing.T) {
	x := newLayoutFixture(t)
	p := &x.params
	type row struct {
		name   string
		verify func() error
		ok     bool
	}
	var rows []row
	for _, d := range []string{"tee", "host"} {
		a, b := x.fwA[d], x.fwB[d]
		combinedSt, combinedH := x.pair(d, a, a, together)
		swappedSt, swappedH := x.pair(d, a, a, swapped)
		_, parentH := x.pair(d, a, a, parentHistory)
		splitSt, _ := x.pair(d, a, b, statusOnly)
		_, splitH := x.pair(d, a, b, historyOnly)
		lieSt, lieH := x.pair(d, a, b, together)
		rows = append(rows,
			row{d + "/status half of a combined reply", func() error { return VerifyStatusEnvelope(p, combinedSt) }, true},
			row{d + "/history half of a combined reply", func() error { return VerifyHistoryEnvelope(p, combinedH) }, true},
			row{d + "/history binding in the status half", func() error { return VerifyStatusEnvelope(p, swappedSt) }, false},
			row{d + "/status binding in the history half", func() error { return VerifyHistoryEnvelope(p, swappedH) }, false},
			row{d + "/parent-layout history [h|0]", func() error { return VerifyHistoryEnvelope(p, parentH) }, false},
			row{d + "/bad-history proof from two attestations", func() error {
				return VerifyMisbehavior(p, &Misbehavior{Kind: MisbehaviorBadHistory, Domain: d, StatusA: splitSt, HistoryA: splitH})
			}, false},
			row{d + "/bad-history proof from one attestation", func() error {
				return VerifyMisbehavior(p, &Misbehavior{Kind: MisbehaviorBadHistory, Domain: d, StatusA: lieSt, HistoryA: lieH})
			}, true},
		)
	}

	nonce := []byte("framework nonce")
	as := x.fwA["tee"].AttestedStatus(nonce)
	minted := &AttestedStatusEnvelope{Nonce: nonce, Resp: domain.StatusResponse{Domain: "tee", Status: as.Status, Quote: as.Quote}}
	hostSt := x.fwA["host"].Status()
	srd := framework.StatusReportData(nonce, &hostSt)
	oldHost := &AttestedStatusEnvelope{Nonce: nonce, Resp: domain.StatusResponse{
		Domain: "host", Status: hostSt, HostKey: x.params.Domains[1].HostKey, HostSig: ed25519.Sign(x.hostPriv, srd[:]),
	}}
	offReport, _ := x.pair("host", x.fwA["host"], x.fwA["host"], together)
	offReport.Resp.HostReport = append([]byte{}, offReport.Resp.HostReport...)
	offReport.Resp.HostReport[40] ^= 1 // the history half: the status half still matches
	rows = append(rows,
		row{"tee/framework.AttestedStatus envelope", func() error { return VerifyStatusEnvelope(p, minted) }, true},
		row{"host/status signed without a HostReport", func() error { return VerifyStatusEnvelope(p, oldHost) }, true},
		row{"host/HostReport differs from the signed bytes", func() error { return VerifyStatusEnvelope(p, offReport) }, false},
	)

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			err := r.verify()
			if r.ok && err != nil {
				t.Fatalf("refused: %v", err)
			}
			if !r.ok && err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// auditedEnvelopes runs one audit of a domain 0 and one TEE domain and
// returns its params and per-domain envelopes.
func auditedEnvelopes(tb testing.TB) (Params, []DomainAudit) {
	tb.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		tb.Fatal(err)
	}
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		tb.Fatal(err)
	}
	params := Params{Roots: roots, Measurement: framework.Measure(dev.PublicKey())}
	mb := sandbox.MustAssemble(echoAppSrc).Encode()
	for i, v := range []*tee.Vendor{nil, vendors[tee.VendorSimSGX]} {
		d, err := domain.Start(domain.Config{Name: name(i), Vendor: v, DeveloperKey: dev.PublicKey()})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { d.Close() })
		if err := d.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
			tb.Fatal(err)
		}
		params.Domains = append(params.Domains, DomainInfo{Name: d.Name(), Addr: d.Addr(), HasTEE: d.HasTEE(), HostKey: d.HostKey()})
	}
	c := NewClient(params)
	defer c.Close()
	r, err := c.Audit()
	if err != nil || !r.Consistent {
		tb.Fatalf("%v %+v", err, r)
	}
	return params, r.Domains
}

// bound is one field an audit's attestation covers, in the status
// envelope (status) or the history one; flip xors one of its bytes and
// reports false when the envelope does not carry the field.
type bound struct {
	name   string
	status bool
	flip   func(st *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool
}

func flipBytes(b []byte, pos int, x byte) bool {
	if len(b) == 0 {
		return false
	}
	b[pos%len(b)] ^= x
	return true
}

func flipUint(v *uint64, pos int, x byte) bool {
	*v ^= uint64(x) << (8 * (pos % 8))
	return true
}

func flipInt(v *int, pos int, x byte) bool {
	u := uint64(*v)
	flipUint(&u, pos, x)
	*v = int(u)
	return true
}

func flipString[S ~string](s *S, pos int, x byte) bool {
	b := []byte(*s)
	ok := flipBytes(b, pos, x)
	*s = S(b)
	return ok
}

func flipQuote(q *tee.Quote, pos int, x byte, field func(q *tee.Quote, pos int, x byte) bool) bool {
	return q != nil && field(q, pos, x)
}

var quoteFields = []struct {
	name string
	flip func(q *tee.Quote, pos int, x byte) bool
}{
	{"quote.vendor", func(q *tee.Quote, pos int, x byte) bool { return flipString(&q.Vendor, pos, x) }},
	{"quote.platform", func(q *tee.Quote, pos int, x byte) bool { return flipString(&q.PlatformID, pos, x) }},
	{"quote.measurement", func(q *tee.Quote, pos int, x byte) bool { return flipBytes(q.Measurement[:], pos, x) }},
	{"quote.report", func(q *tee.Quote, pos int, x byte) bool { return flipBytes(q.ReportData[:], pos, x) }},
	{"quote.attkey", func(q *tee.Quote, pos int, x byte) bool { return flipBytes(q.AttKey, pos, x) }},
	{"quote.endorsement", func(q *tee.Quote, pos int, x byte) bool { return flipBytes(q.Endorsement, pos, x) }},
	{"quote.signature", func(q *tee.Quote, pos int, x byte) bool { return flipBytes(q.Signature, pos, x) }},
}

func boundFields() []bound {
	fs := []bound{
		{"status.nonce", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(st.Nonce, pos, x)
		}},
		{"status.version", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipUint(&st.Resp.Status.Version, pos, x)
		}},
		{"status.digest", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipString(&st.Resp.Status.CurrentDigest, pos, x)
		}},
		{"status.loglen", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipInt(&st.Resp.Status.LogLen, pos, x)
		}},
		{"status.loghead", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(st.Resp.Status.LogHead, pos, x)
		}},
		{"status.counter", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipUint(&st.Resp.Status.Counter, pos, x)
		}},
		{"status.host_key", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(st.Resp.HostKey, pos, x)
		}},
		{"status.host_sig", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(st.Resp.HostSig, pos, x)
		}},
		{"status.host_report", true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(st.Resp.HostReport, pos, x)
		}},
		{"history.nonce", false, func(_ *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(h.Nonce, pos, x)
		}},
		{"history.from", false, func(_ *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipInt(&h.Resp.From, pos, x)
		}},
		{"history.records", false, func(_ *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool {
			n := len(h.Resp.Records)
			return n > 0 && flipBytes(h.Resp.Records[pos%n], pos/n, x)
		}},
		{"history.host_key", false, func(_ *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(h.Resp.HostKey, pos, x)
		}},
		{"history.host_sig", false, func(_ *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(h.Resp.HostSig, pos, x)
		}},
		{"history.host_report", false, func(_ *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool {
			return flipBytes(h.Resp.HostReport, pos, x)
		}},
	}
	for _, qf := range quoteFields {
		fs = append(fs,
			bound{"status." + qf.name, true, func(st *AttestedStatusEnvelope, _ *AttestedHistoryEnvelope, pos int, x byte) bool {
				return flipQuote(st.Resp.Quote, pos, x, qf.flip)
			}},
			bound{"history." + qf.name, false, func(_ *AttestedStatusEnvelope, h *AttestedHistoryEnvelope, pos int, x byte) bool {
				return flipQuote(h.Resp.Quote, pos, x, qf.flip)
			}})
	}
	return fs
}

// FuzzEnvelopeTamper: any single-byte change to a field the attestation
// binds — in the status or the history envelope of one audit, of a TEE
// domain or of domain 0 — fails that envelope's verification.
func FuzzEnvelopeTamper(f *testing.F) {
	params, audited := auditedEnvelopes(f)
	fields := boundFields()
	for d := range audited {
		for i := range fields {
			f.Add(uint8(d), uint8(i), uint16(0), byte(1))
		}
	}
	f.Fuzz(func(t *testing.T, d, field uint8, pos uint16, x byte) {
		if x == 0 {
			return
		}
		da := &audited[int(d)%len(audited)]
		bf := fields[int(field)%len(fields)]
		var st AttestedStatusEnvelope
		var h AttestedHistoryEnvelope
		deepCopy(t, &da.Status, &st)
		deepCopy(t, &da.History, &h)
		if !bf.flip(&st, &h, int(pos), x) {
			return // this domain's envelopes do not carry the field
		}
		if bf.status {
			if VerifyStatusEnvelope(&params, &st) == nil {
				t.Fatalf("%s: %s flipped by %#x at %d still verifies", da.Info.Name, bf.name, x, pos)
			}
		} else if VerifyHistoryEnvelope(&params, &h) == nil {
			t.Fatalf("%s: %s flipped by %#x at %d still verifies", da.Info.Name, bf.name, x, pos)
		}
	})
}

// deepCopy copies an envelope through JSON, so the two envelopes of one
// audit stop sharing their attestation.
func deepCopy(t *testing.T, in, out any) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}
