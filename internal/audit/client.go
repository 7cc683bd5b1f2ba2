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
// domain 0, and the binding of the status to the nonce.
func VerifyStatusEnvelope(p *Params, env *AttestedStatusEnvelope) error {
	info, err := p.domainInfo(env.Resp.Domain)
	if err != nil {
		return err
	}
	rd := framework.StatusReportData(env.Nonce, &env.Resp.Status)
	if info.HasTEE {
		if env.Resp.Quote == nil {
			return fmt.Errorf("audit: domain %s returned no quote", info.Name)
		}
		if err := tee.VerifyQuote(p.Roots, env.Resp.Quote); err != nil {
			return fmt.Errorf("audit: domain %s quote: %w", info.Name, err)
		}
		if env.Resp.Quote.Measurement != p.Measurement {
			return &MeasurementError{Domain: info.Name}
		}
		if env.Resp.Quote.ReportData != rd {
			return fmt.Errorf("audit: domain %s quote does not bind status/nonce", info.Name)
		}
		return nil
	}
	if !bytes.Equal(env.Resp.HostKey, info.HostKey) {
		return fmt.Errorf("audit: domain %s host key mismatch", info.Name)
	}
	if !ed25519.Verify(info.HostKey, rd[:], env.Resp.HostSig) {
		return fmt.Errorf("audit: domain %s host signature invalid", info.Name)
	}
	return nil
}

// MeasurementError distinguishes "valid quote, wrong code" — which is an
// attributable proof of misbehavior — from mere verification failures.
type MeasurementError struct{ Domain string }

func (e *MeasurementError) Error() string {
	return fmt.Sprintf("audit: domain %s attests to an unexpected measurement", e.Domain)
}

// VerifyHistoryEnvelope checks the authenticity of a history response.
// The binding commits to the response's From offset, so a signed suffix
// cannot be re-presented as a full history (or vice versa).
func VerifyHistoryEnvelope(p *Params, env *AttestedHistoryEnvelope) error {
	info, err := p.domainInfo(env.Resp.Domain)
	if err != nil {
		return err
	}
	if env.Resp.From < 0 {
		return fmt.Errorf("audit: domain %s history has negative offset", info.Name)
	}
	binding := domain.HistoryBindingFrom(env.Resp.From, env.Resp.Records, env.Nonce)
	if info.HasTEE {
		if env.Resp.Quote == nil {
			return fmt.Errorf("audit: domain %s history has no quote", info.Name)
		}
		if err := tee.VerifyQuote(p.Roots, env.Resp.Quote); err != nil {
			return fmt.Errorf("audit: domain %s history quote: %w", info.Name, err)
		}
		if env.Resp.Quote.Measurement != p.Measurement {
			return &MeasurementError{Domain: info.Name}
		}
		var rd [64]byte
		copy(rd[:32], binding)
		if env.Resp.Quote.ReportData != rd {
			return fmt.Errorf("audit: domain %s history quote does not bind records/nonce", info.Name)
		}
		return nil
	}
	if !bytes.Equal(env.Resp.HostKey, info.HostKey) {
		return fmt.Errorf("audit: domain %s host key mismatch", info.Name)
	}
	if !ed25519.Verify(info.HostKey, binding, env.Resp.HostSig) {
		return fmt.Errorf("audit: domain %s history signature invalid", info.Name)
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

// Params returns the public verification parameters.
func (c *Client) Params() Params { return c.params }

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

// call issues one RPC to the endpoint at addr under the client's trace
// and per-call deadline.
func (c *Client) call(addr, kind string, in, out any) error {
	c.mu.Lock()
	m := c.endpoints[addr]
	if m == nil {
		m = transport.DialManaged(addr, transport.ManagedOptions{Dial: c.dial})
		c.endpoints[addr] = m
	}
	ctx := obsv.ContextWithTrace(context.Background(), c.trace)
	timeout := c.timeout
	c.mu.Unlock()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
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
	var resp domain.StatusResponse
	if err := c.call(info.Addr, "status", domain.StatusRequest{Nonce: nonce}, &resp); err != nil {
		return nil, fmt.Errorf("audit: status from %s: %w", name, err)
	}
	env := &AttestedStatusEnvelope{Nonce: nonce, Resp: resp}
	if err := VerifyStatusEnvelope(&c.params, env); err != nil {
		return env, err
	}
	return env, nil
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
	var resp domain.HistoryResponse
	if err := c.call(info.Addr, "history", domain.HistoryRequest{Nonce: nonce, From: from}, &resp); err != nil {
		return nil, fmt.Errorf("audit: history from %s: %w", name, err)
	}
	env := &AttestedHistoryEnvelope{Nonce: nonce, Resp: resp}
	if err := VerifyHistoryEnvelope(&c.params, env); err != nil {
		return env, err
	}
	return env, nil
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
// audit. With a cache and an attested status at least as long, it
// fetches only the suffix and verifies the extension; any mismatch
// (wrong suffix length, extension that does not reach the attested
// head, or a domain that cannot serve deltas) falls back to the full
// fetch-and-rehash path, so a lying domain gains nothing — it only
// forfeits the optimization. Returns the envelope to record in the
// report, the complete raw record list, and whether the full list
// chains to the attested head.
func (c *Client) auditHistory(name string, st *AttestedStatusEnvelope) (*AttestedHistoryEnvelope, [][]byte, bool, error) {
	status := st.Resp.Status
	var attested aolog.Digest
	copy(attested[:], status.LogHead)

	c.mu.Lock()
	cached := c.hist[name]
	c.mu.Unlock()
	if cached != nil && status.LogLen >= cached.len {
		env, err := c.FetchHistoryFrom(name, cached.len)
		switch {
		case err == nil && env.Resp.From == cached.len &&
			len(env.Resp.Records) == status.LogLen-cached.len &&
			aolog.VerifyExtension(cached.head, cached.len, env.Resp.Records, attested):
			records := make([][]byte, 0, status.LogLen)
			records = append(records, cached.records...)
			records = append(records, env.Resp.Records...)
			c.mu.Lock()
			c.hist[name] = &historyCache{len: status.LogLen, head: attested, records: records}
			c.mu.Unlock()
			return env, records, true, nil
		case err == nil:
			// The domain ANSWERED but the suffix does not extend what we
			// verified before — suspicious. Drop the cache and re-audit
			// the whole history.
			c.mu.Lock()
			delete(c.hist, name)
			c.mu.Unlock()
		default:
			// Transport failure: nothing suspicious happened, so the
			// verified cache stays for the next audit; this one falls
			// through to the full fetch (which reports its own error if
			// the domain is really unreachable).
		}
	}

	env, err := c.FetchHistory(name)
	if err != nil {
		return nil, nil, false, err
	}
	records := env.Resp.Records
	chainOK := len(records) == status.LogLen && aolog.VerifyChain(records, attested)
	if chainOK {
		c.mu.Lock()
		c.hist[name] = &historyCache{len: status.LogLen, head: attested, records: records}
		c.mu.Unlock()
	}
	return env, records, chainOK, nil
}

// Audit performs the full audit protocol against every domain.
func (c *Client) Audit() (*Report, error) {
	report := &Report{Consistent: true}
	for i := range c.params.Domains {
		info := c.params.Domains[i]
		da := DomainAudit{Info: info}

		stEnv, err := c.FetchStatus(info.Name)
		if err != nil {
			var me *MeasurementError
			if errors.As(err, &me) && stEnv != nil {
				report.Proofs = append(report.Proofs, Misbehavior{
					Kind:    MisbehaviorWrongMeasurement,
					Domain:  info.Name,
					StatusA: stEnv,
				})
				report.Findings = append(report.Findings, err.Error())
				report.Consistent = false
				continue
			}
			return nil, err
		}
		da.Status = *stEnv

		// Equivocation check against the previous audit of this domain.
		c.mu.Lock()
		prev, seen := c.last[info.Name]
		c.mu.Unlock()
		if seen {
			ps, ns := prev.Resp.Status, stEnv.Resp.Status
			switch {
			case ns.LogLen == ps.LogLen && !bytes.Equal(ns.LogHead, ps.LogHead):
				report.Proofs = append(report.Proofs, Misbehavior{
					Kind:    MisbehaviorEquivocation,
					Domain:  info.Name,
					StatusA: &prev,
					StatusB: stEnv,
				})
				report.Findings = append(report.Findings,
					fmt.Sprintf("domain %s equivocated: two heads at log length %d", info.Name, ns.LogLen))
				report.Consistent = false
			case ns.LogLen < ps.LogLen || ns.Version < ps.Version:
				report.Proofs = append(report.Proofs, Misbehavior{
					Kind:    MisbehaviorRollback,
					Domain:  info.Name,
					StatusA: &prev,
					StatusB: stEnv,
				})
				report.Findings = append(report.Findings,
					fmt.Sprintf("domain %s rolled back (log %d->%d, version %d->%d)",
						info.Name, ps.LogLen, ns.LogLen, ps.Version, ns.Version))
				report.Consistent = false
			}
		}
		c.mu.Lock()
		c.last[info.Name] = *stEnv
		c.mu.Unlock()

		histEnv, records, chainOK, err := c.auditHistory(info.Name, stEnv)
		if err != nil {
			return nil, err
		}
		da.History = *histEnv

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
	// all n trust domains").
	for i := 1; i < len(report.Domains); i++ {
		a, b := &report.Domains[0], &report.Domains[i]
		sa, sb := a.Status.Resp.Status, b.Status.Resp.Status
		if sa.CurrentDigest != sb.CurrentDigest || sa.Version != sb.Version {
			report.Proofs = append(report.Proofs, Misbehavior{
				Kind:    MisbehaviorDigestDivergence,
				Domain:  a.Info.Name,
				DomainB: b.Info.Name,
				StatusA: &a.Status,
				StatusB: &b.Status,
			})
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
			// portable proof is dropped.
			if ha, hb, err := c.fullHistoryPair(&a.History, &b.History, a.Info.Name, b.Info.Name); err == nil {
				report.Proofs = append(report.Proofs, Misbehavior{
					Kind:     MisbehaviorHistoryDivergence,
					Domain:   a.Info.Name,
					DomainB:  b.Info.Name,
					HistoryA: ha,
					HistoryB: hb,
				})
			}
			report.Findings = append(report.Findings,
				fmt.Sprintf("domains %s and %s have diverging update histories", a.Info.Name, b.Info.Name))
			report.Consistent = false
		}
	}
	return report, nil
}

// fullHistoryPair upgrades audit-time history envelopes to full-history
// envelopes suitable for a divergence proof, refetching any that only
// cover a suffix. The refetched pair must STILL diverge: a domain that
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
	if rawHistoriesEqual(ha.Resp.Records, hb.Resp.Records) {
		return nil, nil, errors.New("audit: refetched histories agree; divergence not provable")
	}
	return ha, hb, nil
}

// historiesAgree compares (version, digest) sequences.
func historiesAgree(a, b []*framework.UpdateRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Version != b[i].Version || a[i].Digest != b[i].Digest {
			return false
		}
	}
	return true
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
