package audit

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/sandbox"
)

// lockstep audits one deployment through two clients with their own
// memories: the oracle runs auditSequential, the other Audit. Every
// audit of a scenario runs on both, one right after the other, and the
// two outcomes must agree.
type lockstep struct {
	params         Params
	oracle, client *Client
}

func newLockstep(t *testing.T, params Params) *lockstep {
	t.Helper()
	l := &lockstep{params: params, oracle: NewClient(params), client: NewClient(params)}
	t.Cleanup(l.oracle.Close)
	t.Cleanup(l.client.Close)
	return l
}

// audit runs one audit on both clients and returns Audit's report.
func (l *lockstep) audit(t *testing.T) (*Report, error) {
	t.Helper()
	want, wantErr := l.oracle.auditSequential()
	got, err := l.client.Audit()
	if (wantErr == nil) != (err == nil) {
		t.Fatalf("oracle error %v, Audit error %v", wantErr, err)
	}
	if err != nil {
		// Both name the operation and the domain that failed first; the
		// transport's wording below that differs (one batch, not one call).
		if w, g := strings.SplitN(wantErr.Error(), ":", 3), strings.SplitN(err.Error(), ":", 3); len(w) < 3 || len(g) < 3 || w[1] != g[1] {
			t.Fatalf("oracle failed with %q, Audit with %q", wantErr, err)
		}
		return nil, err
	}
	sameReport(t, &l.params, want, got)
	return got, nil
}

// sameReport requires two reports to say the same thing: verdict,
// findings, proof kinds and domains (each proof verifying), and the
// audited domains in order with their history shape.
func sameReport(t *testing.T, params *Params, want, got *Report) {
	t.Helper()
	if want.Consistent != got.Consistent {
		t.Fatalf("Consistent: oracle %v, Audit %v (findings %q vs %q)", want.Consistent, got.Consistent, want.Findings, got.Findings)
	}
	if strings.Join(want.Findings, "\n") != strings.Join(got.Findings, "\n") {
		t.Fatalf("findings differ:\noracle %q\nAudit  %q", want.Findings, got.Findings)
	}
	if len(want.Proofs) != len(got.Proofs) {
		t.Fatalf("oracle produced %d proofs, Audit %d", len(want.Proofs), len(got.Proofs))
	}
	for i := range want.Proofs {
		w, g := &want.Proofs[i], &got.Proofs[i]
		if w.Kind != g.Kind || w.Domain != g.Domain || w.DomainB != g.DomainB {
			t.Fatalf("proof %d: oracle %s(%s,%s), Audit %s(%s,%s)", i, w.Kind, w.Domain, w.DomainB, g.Kind, g.Domain, g.DomainB)
		}
		if err := VerifyMisbehavior(params, g); err != nil {
			t.Fatalf("Audit's %s proof does not verify: %v", g.Kind, err)
		}
	}
	if len(want.Domains) != len(got.Domains) {
		t.Fatalf("oracle audited %d domains, Audit %d", len(want.Domains), len(got.Domains))
	}
	for i := range want.Domains {
		w, g := &want.Domains[i], &got.Domains[i]
		if w.Info.Name != g.Info.Name || len(w.Records) != len(g.Records) ||
			w.History.Resp.From != g.History.Resp.From || len(w.History.Resp.Records) != len(g.History.Resp.Records) {
			t.Fatalf("domain %d: oracle %s (%d records, history from %d with %d), Audit %s (%d records, history from %d with %d)",
				i, w.Info.Name, len(w.Records), w.History.Resp.From, len(w.History.Resp.Records),
				g.Info.Name, len(g.Records), g.History.Resp.From, len(g.History.Resp.Records))
		}
	}
}

func wantProof(t *testing.T, r *Report, kind MisbehaviorKind) {
	t.Helper()
	for i := range r.Proofs {
		if r.Proofs[i].Kind == kind {
			return
		}
	}
	t.Fatalf("no %s proof; findings %q", kind, r.Findings)
}

// TestAuditMatchesOracleOnHonestDeployment: fresh, warm, delta and
// poisoned-cache audits of an honest deployment.
func TestAuditMatchesOracleOnHonestDeployment(t *testing.T) {
	td := newTestDeployment(t)
	l := newLockstep(t, td.params)
	for round := 0; round < 2; round++ {
		if r, err := l.audit(t); err != nil || !r.Consistent {
			t.Fatalf("round %d: %v %v", round, err, r)
		}
	}
	td.push(t, 2)
	td.push(t, 3)
	if r, err := l.audit(t); err != nil || !r.Consistent || r.Domains[0].History.Resp.From != 1 {
		t.Fatalf("delta audit: %v %+v", err, r)
	}
	td.push(t, 4)
	for _, c := range []*Client{l.oracle, l.client} {
		c.mu.Lock()
		for _, hc := range c.hist {
			hc.head = aolog.Digest{0xde, 0xad}
		}
		c.mu.Unlock()
	}
	if r, err := l.audit(t); err != nil || !r.Consistent || r.Domains[0].History.Resp.From != 0 {
		t.Fatalf("audit over a poisoned cache: %v %+v", err, r)
	}
}

// TestAuditMatchesOracleOnDivergence: two domains running two different
// modules as one version, seen by a fresh client and by a warm one (whose
// suffix envelopes force the full-history refetch before a divergence
// proof is built).
func TestAuditMatchesOracleOnDivergence(t *testing.T) {
	td := newTestDeployment(t)
	warm := newLockstep(t, td.params)
	if _, err := warm.audit(t); err != nil {
		t.Fatal(err)
	}
	td.installV2(t, 0, 1)
	td.installV2(t, 1, 2)
	for _, l := range []*lockstep{newLockstep(t, td.params), warm} {
		r, err := l.audit(t)
		if err != nil {
			t.Fatal(err)
		}
		wantProof(t, r, MisbehaviorDigestDivergence)
		wantProof(t, r, MisbehaviorHistoryDivergence)
	}
}

// TestAuditMatchesOracleOnRogueDomain: a domain running other code under
// a pinned vendor root.
func TestAuditMatchesOracleOnRogueDomain(t *testing.T) {
	td := newTestDeployment(t)
	imp, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := domain.Start(domain.Config{Name: "domain-2", Vendor: td.nitroVendor, DeveloperKey: imp.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rogue.Close() })
	mb := sandbox.MustAssemble(echoAppSrc).Encode()
	if err := rogue.Install(1, mb, imp.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	params := td.params
	params.Domains = append([]DomainInfo{}, td.params.Domains...)
	params.Domains[2].Addr = rogue.Addr()
	l := newLockstep(t, params)
	for round := 0; round < 2; round++ {
		r, err := l.audit(t)
		if err != nil {
			t.Fatal(err)
		}
		wantProof(t, r, MisbehaviorWrongMeasurement)
	}
}

// TestAuditMatchesOracleOnEquivocation: a domain that flips between two
// logs of one length between audits.
func TestAuditMatchesOracleOnEquivocation(t *testing.T) {
	ed, params := startEvilDomain(t)
	l := newLockstep(t, params)
	if r, err := l.audit(t); err != nil || !r.Consistent {
		t.Fatalf("first view: %v %+v", err, r)
	}
	ed.flipped.Store(true)
	r, err := l.audit(t)
	if err != nil {
		t.Fatal(err)
	}
	wantProof(t, r, MisbehaviorEquivocation)
}

// TestAuditMatchesOracleOnBadHistory: a domain whose attested history
// does not chain to its attested head, for a fresh client and a warm one.
func TestAuditMatchesOracleOnBadHistory(t *testing.T) {
	ed, params := startEvilDomain(t)
	warm := newLockstep(t, params)
	if r, err := warm.audit(t); err != nil || !r.Consistent {
		t.Fatalf("first view: %v %+v", err, r)
	}
	ed.splitHistory.Store(true)
	for _, l := range []*lockstep{newLockstep(t, params), warm} {
		r, err := l.audit(t)
		if err != nil {
			t.Fatal(err)
		}
		wantProof(t, r, MisbehaviorBadHistory)
	}
}

// TestAuditMatchesOracleOnRollback: a domain whose operator wipes its
// state and reinstalls an older version between audits (the enclave's
// counter still advances), which costs the batched audit its one extra
// round trip.
func TestAuditMatchesOracleOnRollback(t *testing.T) {
	ed, params := startEvilDomain(t)
	m2 := sandbox.MustAssemble(echoAppSrc)
	m2.Functions[0].Code = append(m2.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop}, sandbox.Instr{Op: sandbox.OpNop})
	mb2 := m2.Encode()
	if err := ed.fwA.Install(2, mb2, ed.dev.SignUpdate(2, mb2)); err != nil {
		t.Fatal(err)
	}
	l := newLockstep(t, params)
	if r, err := l.audit(t); err != nil || !r.Consistent {
		t.Fatalf("first view: %v %+v", err, r)
	}
	wiped, err := framework.New(ed.dev.PublicKey(), ed.enclave, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb := sandbox.MustAssemble(echoAppSrc).Encode()
	if err := wiped.Install(1, mb, ed.dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	ed.fwB = wiped // published to the handlers by the flip below
	ed.flipped.Store(true)
	r, err := l.audit(t)
	if err != nil {
		t.Fatal(err)
	}
	wantProof(t, r, MisbehaviorRollback)
}

// TestAuditMatchesOracleOnUnreachableDomains: with two domains down, both
// fail, on the first of them in domain order.
func TestAuditMatchesOracleOnUnreachableDomains(t *testing.T) {
	td := newTestDeployment(t)
	warm := newLockstep(t, td.params)
	if _, err := warm.audit(t); err != nil {
		t.Fatal(err)
	}
	td.domains[2].Close()
	td.domains[1].Close()
	for _, l := range []*lockstep{newLockstep(t, td.params), warm} {
		_, err := l.audit(t)
		if err == nil || !strings.Contains(err.Error(), "domain-1") {
			t.Fatalf("audit with domain-1 and domain-2 down = %v, want an error naming domain-1", err)
		}
	}
}

// countingConn counts the frames a client writes: one Write per frame.
type countingConn struct {
	net.Conn
	frames *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.frames.Add(1)
	return c.Conn.Write(b)
}

// TestAuditOneBatchPerDomain: a fresh client dials each domain once and
// sends it one frame; a warm client dials nothing and still sends one
// frame per domain, whether or not the histories grew. Every request in
// those frames carries a nonce of its own.
func TestAuditOneBatchPerDomain(t *testing.T) {
	td := newTestDeployment(t)
	var dials, frames atomic.Int64
	c := NewClient(td.params)
	defer c.Close()
	c.SetDial(func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		return &countingConn{Conn: conn, frames: &frames}, nil
	})
	n := int64(len(td.params.Domains))
	nonces := map[string]bool{}
	for round, wantDials := range []int64{n, 0, 0} {
		if round == 2 {
			td.push(t, 2)
		}
		dials.Store(0)
		frames.Store(0)
		r, err := c.Audit()
		if err != nil || !r.Consistent {
			t.Fatalf("round %d: %v %+v", round, err, r)
		}
		if d, f := dials.Load(), frames.Load(); d != wantDials || f != n {
			t.Fatalf("round %d: %d dials and %d request frames for %d domains, want %d and %d", round, d, f, n, wantDials, n)
		}
		for _, da := range r.Domains {
			for _, nonce := range [][]byte{da.Status.Nonce, da.History.Nonce} {
				if nonces[string(nonce)] {
					t.Fatalf("round %d: %s reused nonce %x", round, da.Info.Name, nonce)
				}
				nonces[string(nonce)] = true
			}
		}
	}
}
