package audit

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/aolog"
	"repro/internal/framework"
)

// auditHistorySequential obtains the domain's verified record list for
// this audit. With a cache and an attested status at least as long, it
// fetches only the suffix and verifies the extension; any mismatch
// (wrong suffix length, extension that does not reach the attested
// head, or a domain that cannot serve deltas) falls back to the full
// fetch-and-rehash path, so a lying domain gains nothing — it only
// forfeits the optimization. Returns the envelope to record in the
// report, the complete raw record list, and whether the full list
// chains to the attested head.
func (c *Client) auditHistorySequential(name string, st *AttestedStatusEnvelope) (*AttestedHistoryEnvelope, [][]byte, bool, error) {
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

// auditSequential is the audit protocol as it ran before Audit batched
// and parallelised its fetches: per domain, in params.Domains order, a
// status round trip, then a history round trip chosen from the verified
// status. Kept as the oracle Audit's reports are compared against.
func (c *Client) auditSequential() (*Report, error) {
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

		histEnv, records, chainOK, err := c.auditHistorySequential(info.Name, stEnv)
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
	// all n trust domains"), between the first members of every two
	// groups of domains with one (Version, CurrentDigest) and one history.
	var firsts []int
	for i := range report.Domains {
		d := &report.Domains[i]
		grouped := false
		for _, f := range firsts {
			e := &report.Domains[f]
			se, sd := e.Status.Resp.Status, d.Status.Resp.Status
			if se.Version == sd.Version && se.CurrentDigest == sd.CurrentDigest && historiesAgree(e.Records, d.Records) {
				grouped = true
				break
			}
		}
		if !grouped {
			firsts = append(firsts, i)
		}
	}
	for x := range firsts {
		for _, y := range firsts[x+1:] {
			a, b := &report.Domains[firsts[x]], &report.Domains[y]
			sa, sb := a.Status.Resp.Status, b.Status.Resp.Status
			if sa.CurrentDigest != sb.CurrentDigest || sa.Version != sb.Version {
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
				// portable proof is dropped; a history that only extends the
				// other convicts nobody.
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
	}
	return report, nil
}
