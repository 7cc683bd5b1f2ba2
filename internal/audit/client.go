// Package audit implements the paper's client-side guarantee (§3.3
// "Auditable"): a client queries every trust domain for an attested code
// digest and digest history, cross-checks them, and — when domains
// disagree or a domain contradicts itself — produces a publicly
// verifiable proof of misbehavior that any third party can check with
// only the deployment's public parameters (vendor roots, framework
// measurement, domain-0 host key).
package audit

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/aolog"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/obsv"
	"repro/internal/tee"
	"repro/internal/transport"
)

// DomainInfo is the client's pinned description of one trust domain.
type DomainInfo struct {
	Name    string
	Addr    string
	HasTEE  bool
	HostKey ed25519.PublicKey // pinned for non-TEE domains
	// Vendor and PlatformID pin a TEE domain to one machine: when Vendor
	// is set, its quotes must name this vendor and platform, so another
	// domain's attested reply relabelled with this name does not verify.
	// A TEE domain without a pin is checked against the vendor root set
	// alone (DESIGN §5, "Known gaps").
	Vendor     tee.VendorID
	PlatformID string
}

// Params are the public verification parameters of a deployment; they are
// everything a third party needs to check misbehavior proofs.
type Params struct {
	Roots       tee.RootSet
	Measurement tee.Measurement
	Domains     []DomainInfo
}

// domainInfo finds a domain by name.
func (p *Params) domainInfo(name string) (*DomainInfo, error) {
	for i := range p.Domains {
		if p.Domains[i].Name == name {
			return &p.Domains[i], nil
		}
	}
	return nil, fmt.Errorf("audit: unknown domain %q", name)
}

// AttestedStatusEnvelope packages a status response with the nonce the
// client chose, making the response independently re-verifiable.
type AttestedStatusEnvelope struct {
	Nonce []byte                `json:"nonce"`
	Resp  domain.StatusResponse `json:"resp"`
}

// AttestedHistoryEnvelope packages a history response with its nonce.
type AttestedHistoryEnvelope struct {
	Nonce []byte                 `json:"nonce"`
	Resp  domain.HistoryResponse `json:"resp"`
}

// VerifyStatusEnvelope checks the authenticity of an attested status:
// quote chain and measurement for TEE domains, pinned host key for
// domain 0, and the binding of the status to the nonce in the first
// half of the attested report data.
func VerifyStatusEnvelope(p *Params, env *AttestedStatusEnvelope) error {
	r := &env.Resp
	srd := framework.StatusReportData(env.Nonce, &r.Status)
	return verifyAttested(p, r.Domain, r.Quote, r.HostKey, r.HostSig, r.HostReport, srd[:32], nil)
}

// MeasurementError distinguishes "valid quote, wrong code" — which is an
// attributable proof of misbehavior — from mere verification failures.
type MeasurementError struct{ Domain string }

func (e *MeasurementError) Error() string {
	return fmt.Sprintf("audit: domain %s attests to an unexpected measurement", e.Domain)
}

// VerifyHistoryEnvelope checks the authenticity of a history response:
// its binding sits in the second half of the attested report data and
// commits to the response's From offset, so a signed suffix cannot be
// re-presented as a full history (or vice versa).
func VerifyHistoryEnvelope(p *Params, env *AttestedHistoryEnvelope) error {
	r := &env.Resp
	if r.From < 0 {
		return fmt.Errorf("audit: domain %s history has negative offset", r.Domain)
	}
	return verifyAttested(p, r.Domain, r.Quote, r.HostKey, r.HostSig, r.HostReport,
		nil, domain.HistoryBindingFrom(r.From, r.Records, env.Nonce))
}

// verifyAttested authenticates one attestation — a quote rooted in a
// vendor key, from the domain's pinned platform if it has one, with the
// published measurement, or the pinned host key's signature over
// hostReport — and checks each half of the 64 report bytes it covers
// against the binding the caller recomputed: the status in rd[0:32],
// the history in rd[32:64]; a nil binding leaves its half unchecked. A domain-0 reply without hostReport signed the
// layout of the bindings given, zero for the missing half.
func verifyAttested(p *Params, name string, quote *tee.Quote, hostKey, hostSig, hostReport, status, history []byte) error {
	info, err := p.domainInfo(name)
	if err != nil {
		return err
	}
	var rd [64]byte
	if info.HasTEE {
		if quote == nil {
			return fmt.Errorf("audit: domain %s returned no quote", info.Name)
		}
		if err := tee.VerifyQuote(p.Roots, quote); err != nil {
			return fmt.Errorf("audit: domain %s quote: %w", info.Name, err)
		}
		if info.Vendor != "" && (quote.Vendor != info.Vendor || quote.PlatformID != info.PlatformID) {
			return fmt.Errorf("audit: domain %s is pinned to %s platform %q, quote is from %s platform %q",
				info.Name, info.Vendor, info.PlatformID, quote.Vendor, quote.PlatformID)
		}
		if quote.Measurement != p.Measurement {
			return &MeasurementError{Domain: info.Name}
		}
		rd = quote.ReportData
	} else {
		if !bytes.Equal(hostKey, info.HostKey) {
			return fmt.Errorf("audit: domain %s host key mismatch", info.Name)
		}
		rd = domain.ReportData(status, history)
		if hostReport != nil {
			if len(hostReport) != len(rd) {
				return fmt.Errorf("audit: domain %s host report is %d bytes, want %d", info.Name, len(hostReport), len(rd))
			}
			copy(rd[:], hostReport)
		}
		if !ed25519.Verify(info.HostKey, rd[:], hostSig) {
			return fmt.Errorf("audit: domain %s host signature invalid", info.Name)
		}
	}
	if status != nil && !bytes.Equal(rd[:32], status) {
		return fmt.Errorf("audit: domain %s attestation does not bind status/nonce", info.Name)
	}
	if history != nil && !bytes.Equal(rd[32:], history) {
		return fmt.Errorf("audit: domain %s attestation does not bind records/nonce", info.Name)
	}
	return nil
}

// DomainAudit is the audited state of one domain.
type DomainAudit struct {
	Info    DomainInfo
	Status  AttestedStatusEnvelope
	History AttestedHistoryEnvelope
	// Records decoded from the history, oldest first.
	Records []*framework.UpdateRecord
}

// Report is the outcome of auditing all domains.
type Report struct {
	Domains []DomainAudit
	// Consistent is true when every check passed and all domains agree.
	Consistent bool
	// Findings lists human-readable inconsistencies.
	Findings []string
	// Proofs holds publicly verifiable misbehavior proofs extracted
	// during the audit.
	Proofs []Misbehavior
}

// CurrentDigest returns the agreed current code digest (only meaningful
// when Consistent).
func (r *Report) CurrentDigest() string {
	if len(r.Domains) == 0 {
		return ""
	}
	return r.Domains[0].Status.Resp.Status.CurrentDigest
}

// historyCache is the client's memory of one domain's last fully
// verified history: the chain length and head it checked, plus the raw
// records. The next audit fetches only records[Len:] and verifies the
// suffix extends the cached head to the newly attested one
// (aolog.VerifyExtension) — O(delta) transfer and hashing instead of
// O(history) per audit.
type historyCache struct {
	len     int
	head    aolog.Digest
	records [][]byte
}

// Client audits a deployment. It remembers the last attested status per
// domain across audits so it can detect equivocation (a domain signing
// two different heads for the same log length) and rollbacks, and
// caches each domain's verified history so repeat audits fetch only the
// delta plus proof material. Every domain and witness it talks to is
// reached through a transport.ManagedClient, which owns the connection
// (lazy dial, eviction on transport failure, idempotent-only retry,
// breaker); the Client itself keeps no connection state.
type Client struct {
	params Params

	mu        sync.Mutex
	trace     obsv.TraceContext
	timeout   time.Duration
	dial      func(addr string, timeout time.Duration) (net.Conn, error)
	endpoints map[string]*transport.ManagedClient // domains and witnesses, by address
	last      map[string]AttestedStatusEnvelope
	hist      map[string]*historyCache
}

// NewClient creates an audit client for a deployment.
func NewClient(params Params) *Client {
	return &Client{
		params:    params,
		endpoints: make(map[string]*transport.ManagedClient),
		last:      make(map[string]AttestedStatusEnvelope),
		hist:      make(map[string]*historyCache),
	}
}

// SetTrace makes every RPC this client issues carry tc (each call gets
// a fresh child span id), so one sampled audit is followable across
// every daemon it touches.
func (c *Client) SetTrace(tc obsv.TraceContext) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = tc
}

// SetCallTimeout bounds every RPC this client issues — connect, send,
// and any retries together — with a per-call deadline (0 restores the
// transport's connect timeout alone).
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// SetDial makes every endpoint this client reaches from now on open its
// connections through dial (nil is plain TCP). A daemon under a fault
// schedule passes its injector's Dial, so the audit path is partitioned
// with the rest of the process.
func (c *Client) SetDial(dial func(addr string, timeout time.Duration) (net.Conn, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dial = dial
}

// Close releases every connection. The client stays usable: a later
// call dials afresh.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.endpoints {
		m.Close()
	}
	c.endpoints = make(map[string]*transport.ManagedClient)
}

// endpoint returns addr's managed endpoint and a context with the client's trace and deadline.
func (c *Client) endpoint(addr string) (*transport.ManagedClient, context.Context, context.CancelFunc) {
	c.mu.Lock()
	m := c.endpoints[addr]
	if m == nil {
		m = transport.DialManaged(addr, transport.ManagedOptions{Dial: c.dial})
		c.endpoints[addr] = m
	}
	ctx := obsv.ContextWithTrace(context.Background(), c.trace)
	timeout := c.timeout
	c.mu.Unlock()
	if timeout <= 0 {
		return m, ctx, func() {}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return m, ctx, cancel
}

// call issues one RPC to the endpoint at addr.
func (c *Client) call(addr, kind string, in, out any) error {
	m, ctx, cancel := c.endpoint(addr)
	defer cancel()
	return m.CallCtx(ctx, kind, in, out)
}

func newNonce() ([]byte, error) {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("audit: nonce: %w", err)
	}
	return nonce, nil
}

// FetchStatus retrieves and authenticates one domain's status.
func (c *Client) FetchStatus(name string) (*AttestedStatusEnvelope, error) {
	info, err := c.params.domainInfo(name)
	if err != nil {
		return nil, err
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	env := &AttestedStatusEnvelope{Nonce: nonce}
	if err := c.call(info.Addr, "status", domain.StatusRequest{Nonce: nonce}, &env.Resp); err != nil {
		return nil, fmt.Errorf("audit: status from %s: %w", name, err)
	}
	return env, VerifyStatusEnvelope(&c.params, env)
}

// FetchHistory retrieves and authenticates one domain's full history.
func (c *Client) FetchHistory(name string) (*AttestedHistoryEnvelope, error) {
	return c.FetchHistoryFrom(name, 0)
}

// FetchHistoryFrom retrieves and authenticates one domain's history
// records from index `from` on. The envelope's signature covers only
// the returned suffix; its place in the chain is established by the
// caller (see auditHistory).
func (c *Client) FetchHistoryFrom(name string, from int) (*AttestedHistoryEnvelope, error) {
	info, err := c.params.domainInfo(name)
	if err != nil {
		return nil, err
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	env := &AttestedHistoryEnvelope{Nonce: nonce}
	if err := c.call(info.Addr, "history", domain.HistoryRequest{Nonce: nonce, From: from}, &env.Resp); err != nil {
		return nil, fmt.Errorf("audit: history from %s: %w", name, err)
	}
	return env, VerifyHistoryEnvelope(&c.params, env)
}

// domainFetch is one domain's audit reply: its status and its history
// from `from`, read together and sharing one attestation.
type domainFetch struct {
	from    int
	status  *AttestedStatusEnvelope
	history *AttestedHistoryEnvelope
	err     error
}

// fetchDomain asks one domain in one call for its status and its
// history from `from`, each under a fresh nonce of its own, and
// authenticates the one attestation covering both. A domain that
// answers with a valid quote for the wrong measurement leaves status
// set next to its MeasurementError.
func (c *Client) fetchDomain(info *DomainInfo, from int) (f domainFetch) {
	f.from = from
	stNonce, err := newNonce()
	histNonce, histErr := newNonce()
	if f.err = errors.Join(err, histErr); f.err != nil {
		return f
	}
	var resp domain.AuditResponse
	req := domain.AuditRequest{StatusNonce: stNonce, HistoryNonce: histNonce, From: from}
	if err := c.call(info.Addr, "audit", req, &resp); err != nil {
		f.err = fmt.Errorf("audit: status from %s: %w", info.Name, err)
		return f
	}
	f.status = &AttestedStatusEnvelope{Nonce: stNonce, Resp: resp.StatusResponse()}
	f.history = &AttestedHistoryEnvelope{Nonce: histNonce, Resp: resp.HistoryResponse()}
	if resp.From < 0 {
		f.err = fmt.Errorf("audit: domain %s history has negative offset", info.Name)
		return f
	}
	srd := framework.StatusReportData(stNonce, &resp.Status)
	f.err = verifyAttested(&c.params, resp.Domain, resp.Quote, resp.HostKey, resp.HostSig, resp.HostReport,
		srd[:32], domain.HistoryBindingFrom(resp.From, resp.Records, histNonce))
	return f
}

// CachedHistoryLen reports how many history records the client has
// verified and cached for a domain (0 = no cache).
func (c *Client) CachedHistoryLen(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hc := c.hist[name]; hc != nil {
		return hc.len
	}
	return 0
}

// auditHistory obtains the domain's verified record list for this
// audit. With a cache and an attested status at least as long, f holds
// the suffix, and the extension is verified; any mismatch (wrong suffix
// length, or an extension that does not reach the attested head) drops
// the cache and falls back to the full fetch-and-rehash path, so a lying
// domain gains nothing — it only forfeits the optimization. The
// fallback reads status and full history again in one call and leaves
// them in f, so the chain check and any proof built from f come from
// one snapshot under one attestation. Returns the complete raw record
// list and whether it chains to the attested head.
func (c *Client) auditHistory(info *DomainInfo, f *domainFetch) ([][]byte, bool, error) {
	status := f.status.Resp.Status
	var attested aolog.Digest
	copy(attested[:], status.LogHead)

	c.mu.Lock()
	cached := c.hist[info.Name]
	c.mu.Unlock()
	if env := f.history; cached != nil && status.LogLen >= cached.len && f.from == cached.len {
		if env.Resp.From == cached.len &&
			len(env.Resp.Records) == status.LogLen-cached.len &&
			aolog.VerifyExtension(cached.head, cached.len, env.Resp.Records, attested) {
			records := make([][]byte, 0, status.LogLen)
			records = append(records, cached.records...)
			records = append(records, env.Resp.Records...)
			c.mu.Lock()
			c.hist[info.Name] = &historyCache{len: status.LogLen, head: attested, records: records}
			c.mu.Unlock()
			return records, true, nil
		}
		// The domain ANSWERED but the suffix does not extend what we
		// verified before — suspicious. Drop the cache and re-audit the
		// whole history.
		c.mu.Lock()
		delete(c.hist, info.Name)
		c.mu.Unlock()
	}
	if f.history.Resp.From != 0 {
		if *f = c.fetchDomain(info, 0); f.err != nil {
			return nil, false, f.err
		}
		status, attested = f.status.Resp.Status, aolog.Digest{}
		copy(attested[:], status.LogHead)
	}
	records := f.history.Resp.Records
	chainOK := len(records) == status.LogLen && aolog.VerifyChain(records, attested)
	if chainOK {
		c.mu.Lock()
		c.hist[info.Name] = &historyCache{len: status.LogLen, head: attested, records: records}
		c.mu.Unlock()
	}
	return records, chainOK, nil
}

// Audit performs the full audit protocol against every domain: one round trip
// per domain, all at once, then every check in params.Domains order.
func (c *Client) Audit() (*Report, error) {
	fetched := make([]domainFetch, len(c.params.Domains))
	var wg sync.WaitGroup
	for i := range c.params.Domains {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info := &c.params.Domains[i]
			f := c.fetchDomain(info, c.CachedHistoryLen(info.Name))
			var remote *transport.ErrRemote
			if f.from != 0 && errors.As(f.err, &remote) {
				// The domain refused the suffix (an honest one does when
				// its log is now shorter than the cached prefix): read
				// the whole history instead.
				f = c.fetchDomain(info, 0)
			}
			fetched[i] = f
		}(i)
	}
	wg.Wait()

	report := &Report{Consistent: true}
	for i := range c.params.Domains {
		info := c.params.Domains[i]
		da := DomainAudit{Info: info}
		f := &fetched[i]

		if err := f.err; err != nil {
			var me *MeasurementError
			if errors.As(err, &me) && f.status != nil {
				report.Proofs = append(report.Proofs, Misbehavior{
					Kind:    MisbehaviorWrongMeasurement,
					Domain:  info.Name,
					StatusA: f.status,
				})
				report.Findings = append(report.Findings, err.Error())
				report.Consistent = false
				continue
			}
			return nil, err
		}
		first := f.status
		c.checkAgainstLast(report, info.Name, first)

		records, chainOK, err := c.auditHistory(&info, f)
		if err != nil {
			return nil, err
		}
		stEnv, histEnv := f.status, f.history
		if stEnv != first {
			// The full-history fallback read a newer status: it too must
			// be consistent with what this client saw before.
			c.checkAgainstLast(report, info.Name, stEnv)
		}
		da.Status, da.History = *stEnv, *histEnv

		// The attested history must hash-chain to the attested head
		// (via the cached-prefix extension or a full re-hash).
		if !chainOK {
			report.Proofs = append(report.Proofs, Misbehavior{
				Kind:     MisbehaviorBadHistory,
				Domain:   info.Name,
				StatusA:  stEnv,
				HistoryA: histEnv,
			})
			report.Findings = append(report.Findings,
				fmt.Sprintf("domain %s served a history inconsistent with its attested head", info.Name))
			report.Consistent = false
		}

		for _, raw := range records {
			rec, err := framework.DecodeRecord(raw)
			if err != nil {
				report.Findings = append(report.Findings,
					fmt.Sprintf("domain %s history record undecodable: %v", info.Name, err))
				report.Consistent = false
				continue
			}
			da.Records = append(da.Records, rec)
		}
		// The current digest must be the latest logged digest.
		if n := len(da.Records); n > 0 {
			if da.Records[n-1].Digest != stEnv.Resp.Status.CurrentDigest {
				report.Findings = append(report.Findings,
					fmt.Sprintf("domain %s current digest not in log", info.Name))
				report.Consistent = false
			}
		}
		report.Domains = append(report.Domains, da)
	}

	// Cross-domain agreement (§3.3: "check that the digests match across
	// all n trust domains"). Domains with one status and one history form
	// a group, and the groups are compared pairwise through their first
	// members: every two domains that disagree are compared, not only
	// those that disagree with the first domain.
	groups := groupDomains(report.Domains)
	for x := range groups {
		for _, y := range groups[x+1:] {
			c.compareDomains(report, &report.Domains[groups[x]], &report.Domains[y])
		}
	}
	return report, nil
}

// groupDomains returns the index of the first domain of each group of
// domains that agree on (Version, CurrentDigest) and on their history.
func groupDomains(domains []DomainAudit) []int {
	var firsts []int
	for i := range domains {
		d := &domains[i]
		if !slices.ContainsFunc(firsts, func(f int) bool {
			e := &domains[f]
			se, sd := e.Status.Resp.Status, d.Status.Resp.Status
			return se.Version == sd.Version && se.CurrentDigest == sd.CurrentDigest && historiesAgree(e.Records, d.Records)
		}) {
			firsts = append(firsts, i)
		}
	}
	return firsts
}

// compareDomains records how two domains disagree: running different
// code is a finding, and a proof only at one Version; diverging
// histories are a finding, and a proof only when they fork.
func (c *Client) compareDomains(report *Report, a, b *DomainAudit) {
	sa, sb := a.Status.Resp.Status, b.Status.Resp.Status
	if sa.CurrentDigest != sb.CurrentDigest || sa.Version != sb.Version {
		// Statuses at two versions may straddle an honest update:
		// a finding, but no conviction.
		if sa.Version == sb.Version {
			report.Proofs = append(report.Proofs, Misbehavior{
				Kind:    MisbehaviorDigestDivergence,
				Domain:  a.Info.Name,
				DomainB: b.Info.Name,
				StatusA: &a.Status,
				StatusB: &b.Status,
			})
		}
		report.Findings = append(report.Findings,
			fmt.Sprintf("domains %s and %s run different code (digest %s... vs %s...)",
				a.Info.Name, b.Info.Name, clip(sa.CurrentDigest), clip(sb.CurrentDigest)))
		report.Consistent = false
	}
	if !historiesAgree(a.Records, b.Records) {
		// A cached-delta audit holds suffix envelopes, which cannot
		// serve as divergence evidence (VerifyMisbehavior requires
		// full histories); refetch complete signed histories for the
		// proof. A refetch failure still flags the finding — only the
		// portable proof is dropped — and so does a history that only
		// extends the other, which an honest update in flight explains.
		if forked(a.Records, b.Records, sameRecord) {
			if ha, hb, err := c.fullHistoryPair(&a.History, &b.History, a.Info.Name, b.Info.Name); err == nil {
				report.Proofs = append(report.Proofs, Misbehavior{
					Kind:     MisbehaviorHistoryDivergence,
					Domain:   a.Info.Name,
					DomainB:  b.Info.Name,
					HistoryA: ha,
					HistoryB: hb,
				})
			}
		}
		report.Findings = append(report.Findings,
			fmt.Sprintf("domains %s and %s have diverging update histories", a.Info.Name, b.Info.Name))
		report.Consistent = false
	}
}

// checkAgainstLast compares a domain's verified status with the last one
// this client saw from it — two heads at one log length are an
// equivocation, a shorter log or a lower version a rollback — and
// remembers it as the new last.
func (c *Client) checkAgainstLast(report *Report, name string, stEnv *AttestedStatusEnvelope) {
	c.mu.Lock()
	prev, seen := c.last[name]
	c.last[name] = *stEnv
	c.mu.Unlock()
	if !seen {
		return
	}
	ps, ns := prev.Resp.Status, stEnv.Resp.Status
	switch {
	case ns.LogLen == ps.LogLen && !bytes.Equal(ns.LogHead, ps.LogHead):
		report.Proofs = append(report.Proofs, Misbehavior{
			Kind:    MisbehaviorEquivocation,
			Domain:  name,
			StatusA: &prev,
			StatusB: stEnv,
		})
		report.Findings = append(report.Findings,
			fmt.Sprintf("domain %s equivocated: two heads at log length %d", name, ns.LogLen))
		report.Consistent = false
	case ns.LogLen < ps.LogLen || ns.Version < ps.Version:
		report.Proofs = append(report.Proofs, Misbehavior{
			Kind:    MisbehaviorRollback,
			Domain:  name,
			StatusA: &prev,
			StatusB: stEnv,
		})
		report.Findings = append(report.Findings,
			fmt.Sprintf("domain %s rolled back (log %d->%d, version %d->%d)",
				name, ps.LogLen, ns.LogLen, ps.Version, ns.Version))
		report.Consistent = false
	}
}

// fullHistoryPair upgrades audit-time history envelopes to full-history
// envelopes suitable for a divergence proof, refetching any that only
// cover a suffix. The refetched pair must STILL fork: a domain that
// equivocates per-request could hand the refetch agreeing histories,
// and a proof built from those would self-reject in VerifyMisbehavior —
// report.Proofs must only carry convictions a third party will accept.
func (c *Client) fullHistoryPair(ha, hb *AttestedHistoryEnvelope, nameA, nameB string) (*AttestedHistoryEnvelope, *AttestedHistoryEnvelope, error) {
	if ha.Resp.From != 0 {
		full, err := c.FetchHistory(nameA)
		if err != nil {
			return nil, nil, err
		}
		ha = full
	}
	if hb.Resp.From != 0 {
		full, err := c.FetchHistory(nameB)
		if err != nil {
			return nil, nil, err
		}
		hb = full
	}
	if !forked(ha.Resp.Records, hb.Resp.Records, bytes.Equal) {
		return nil, nil, errors.New("audit: refetched histories do not fork; divergence not provable")
	}
	return ha, hb, nil
}

// historiesAgree compares (version, digest) sequences.
func historiesAgree(a, b []*framework.UpdateRecord) bool {
	return len(a) == len(b) && !forked(a, b, sameRecord)
}

func sameRecord(x, y *framework.UpdateRecord) bool {
	return x.Version == y.Version && x.Digest == y.Digest
}

func clip(s string) string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// ExpectedDigest is a convenience for clients who obtained the published
// source: it reports whether the audited deployment runs the module with
// the given digest.
func (r *Report) ExpectedDigest(digest [32]byte) bool {
	return r.Consistent && r.CurrentDigest() == hex.EncodeToString(digest[:])
}
