package audit

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/aolog"
	"repro/internal/domain"
	"repro/internal/gossip"
)

// MisbehaviorKind enumerates the publicly verifiable proof types.
type MisbehaviorKind string

const (
	// MisbehaviorWrongMeasurement: a domain produced a valid vendor-rooted
	// quote whose measurement is not the published framework measurement —
	// the domain runs different software.
	MisbehaviorWrongMeasurement MisbehaviorKind = "wrong-measurement"
	// MisbehaviorEquivocation: one domain signed two different log heads
	// for the same log length.
	MisbehaviorEquivocation MisbehaviorKind = "equivocation"
	// MisbehaviorRollback: a domain's attested log shrank or its version
	// decreased between two audits.
	MisbehaviorRollback MisbehaviorKind = "rollback"
	// MisbehaviorBadHistory: a domain's served history does not hash-chain
	// to its own attested head.
	MisbehaviorBadHistory MisbehaviorKind = "bad-history"
	// MisbehaviorDigestDivergence: two domains attest to different current
	// code at one version.
	MisbehaviorDigestDivergence MisbehaviorKind = "digest-divergence"
	// MisbehaviorHistoryDivergence: two domains attest to update histories
	// neither of which is a prefix of the other.
	MisbehaviorHistoryDivergence MisbehaviorKind = "history-divergence"
	// MisbehaviorLogEquivocation: a log operator (a monitor) signed two
	// incompatible tree heads — caught by the gossip/witness layer. The
	// proof is self-contained (it binds the operator's BLS key), so this
	// kind needs no deployment Params to verify.
	MisbehaviorLogEquivocation MisbehaviorKind = "log-equivocation"
)

// Misbehavior is a self-contained, publicly verifiable proof: given only
// the deployment Params, VerifyMisbehavior re-checks every signature and
// recomputes every hash, so a third party needs no trust in the auditor.
type Misbehavior struct {
	Kind     MisbehaviorKind          `json:"kind"`
	Domain   string                   `json:"domain"`
	DomainB  string                   `json:"domain_b,omitempty"`
	StatusA  *AttestedStatusEnvelope  `json:"status_a,omitempty"`
	StatusB  *AttestedStatusEnvelope  `json:"status_b,omitempty"`
	HistoryA *AttestedHistoryEnvelope `json:"history_a,omitempty"`
	HistoryB *AttestedHistoryEnvelope `json:"history_b,omitempty"`
	// Gossip carries the conviction for MisbehaviorLogEquivocation.
	Gossip *gossip.EquivocationProof `json:"gossip,omitempty"`
}

// VerifyMisbehavior checks a misbehavior proof with only public
// parameters. A nil return means the proof is valid: the named domain(s)
// demonstrably misbehaved (or, for divergence kinds, at least one of the
// two did).
func VerifyMisbehavior(p *Params, m *Misbehavior) error {
	if m == nil {
		return errors.New("audit: nil misbehavior proof")
	}
	switch m.Kind {
	case MisbehaviorWrongMeasurement:
		if m.StatusA == nil {
			return errors.New("audit: proof missing status")
		}
		err := VerifyStatusEnvelope(p, m.StatusA)
		var me *MeasurementError
		if !errors.As(err, &me) {
			return fmt.Errorf("audit: status does not demonstrate a wrong measurement (verify err: %v)", err)
		}
		if me.Domain != m.Domain {
			return errors.New("audit: proof names the wrong domain")
		}
		return nil

	case MisbehaviorEquivocation:
		if m.StatusA == nil || m.StatusB == nil {
			return errors.New("audit: equivocation proof needs two statuses")
		}
		if m.StatusA.Resp.Domain != m.Domain || m.StatusB.Resp.Domain != m.Domain {
			return errors.New("audit: statuses are not from the accused domain")
		}
		if err := VerifyStatusEnvelope(p, m.StatusA); err != nil {
			return fmt.Errorf("audit: first status: %w", err)
		}
		if err := VerifyStatusEnvelope(p, m.StatusB); err != nil {
			return fmt.Errorf("audit: second status: %w", err)
		}
		a, b := m.StatusA.Resp.Status, m.StatusB.Resp.Status
		if a.LogLen != b.LogLen {
			return errors.New("audit: statuses cover different log lengths")
		}
		if bytes.Equal(a.LogHead, b.LogHead) {
			return errors.New("audit: heads agree; no equivocation")
		}
		return nil

	case MisbehaviorRollback:
		if m.StatusA == nil || m.StatusB == nil {
			return errors.New("audit: rollback proof needs two statuses")
		}
		if m.StatusA.Resp.Domain != m.Domain || m.StatusB.Resp.Domain != m.Domain {
			return errors.New("audit: statuses are not from the accused domain")
		}
		if err := VerifyStatusEnvelope(p, m.StatusA); err != nil {
			return fmt.Errorf("audit: first status: %w", err)
		}
		if err := VerifyStatusEnvelope(p, m.StatusB); err != nil {
			return fmt.Errorf("audit: second status: %w", err)
		}
		a, b := m.StatusA.Resp.Status, m.StatusB.Resp.Status
		// Two order-attributable forms:
		// (1) Counter ordering: the TEE monotonic counter proves which
		//     status is later; a later status with a shorter log or lower
		//     version is a rollback.
		if b.Counter > a.Counter && (b.LogLen < a.LogLen || b.Version < a.Version) {
			return nil
		}
		if a.Counter > b.Counter && (a.LogLen < b.LogLen || a.Version < b.Version) {
			return nil
		}
		// (2) Logical contradiction, order-free: an honest framework's
		//     version and log length advance in lockstep (one log entry
		//     per activation), so equal log lengths with different
		//     versions — or equal versions with different log lengths —
		//     cannot both be honest.
		if a.LogLen == b.LogLen && a.Version != b.Version {
			return nil
		}
		if a.Version == b.Version && a.LogLen != b.LogLen {
			return nil
		}
		return errors.New("audit: statuses do not demonstrate an attributable rollback")

	case MisbehaviorBadHistory:
		if m.StatusA == nil || m.HistoryA == nil {
			return errors.New("audit: bad-history proof needs a status and a history")
		}
		if m.StatusA.Resp.Domain != m.Domain || m.HistoryA.Resp.Domain != m.Domain {
			return errors.New("audit: envelopes are not from the accused domain")
		}
		if err := VerifyStatusEnvelope(p, m.StatusA); err != nil {
			return fmt.Errorf("audit: status: %w", err)
		}
		// Only a FULL history can convict: a suffix response legitimately
		// holds fewer records than the attested log length, so accepting
		// one here would let anyone "convict" an honest domain by asking
		// for a delta.
		if m.HistoryA.Resp.From != 0 {
			return errors.New("audit: bad-history proof needs a full history, not a suffix")
		}
		if err := VerifyHistoryEnvelope(p, m.HistoryA); err != nil {
			return fmt.Errorf("audit: history: %w", err)
		}
		// A status and a history attested apart may describe two honest
		// states (an update landed between the reads); only a pair read
		// from one snapshot under one attestation contradicts itself.
		if !attestedTogether(&m.StatusA.Resp, &m.HistoryA.Resp) {
			return errors.New("audit: status and history were not attested together")
		}
		var head aolog.Digest
		copy(head[:], m.StatusA.Resp.Status.LogHead)
		if len(m.HistoryA.Resp.Records) == m.StatusA.Resp.Status.LogLen &&
			aolog.VerifyChain(m.HistoryA.Resp.Records, head) {
			return errors.New("audit: history verifies; no misbehavior")
		}
		return nil

	case MisbehaviorDigestDivergence:
		if m.StatusA == nil || m.StatusB == nil {
			return errors.New("audit: divergence proof needs two statuses")
		}
		if m.StatusA.Resp.Domain != m.Domain || m.StatusB.Resp.Domain != m.DomainB {
			return errors.New("audit: statuses do not match the named domains")
		}
		if err := VerifyStatusEnvelope(p, m.StatusA); err != nil {
			return fmt.Errorf("audit: first status: %w", err)
		}
		if err := VerifyStatusEnvelope(p, m.StatusB); err != nil {
			return fmt.Errorf("audit: second status: %w", err)
		}
		a, b := m.StatusA.Resp.Status, m.StatusB.Resp.Status
		// Two honest domains read on either side of an update differ in
		// version; only one version under two digests is a fork.
		if a.Version != b.Version {
			return errors.New("audit: statuses are at different versions; an update may have landed between the reads")
		}
		if a.CurrentDigest == b.CurrentDigest {
			return errors.New("audit: statuses agree; no divergence")
		}
		return nil

	case MisbehaviorHistoryDivergence:
		if m.HistoryA == nil || m.HistoryB == nil {
			return errors.New("audit: divergence proof needs two histories")
		}
		if m.HistoryA.Resp.Domain != m.Domain || m.HistoryB.Resp.Domain != m.DomainB {
			return errors.New("audit: histories do not match the named domains")
		}
		// Suffixes at arbitrary offsets are not comparable: divergence is
		// only demonstrated by two complete histories.
		if m.HistoryA.Resp.From != 0 || m.HistoryB.Resp.From != 0 {
			return errors.New("audit: history-divergence proof needs full histories, not suffixes")
		}
		if err := VerifyHistoryEnvelope(p, m.HistoryA); err != nil {
			return fmt.Errorf("audit: first history: %w", err)
		}
		if err := VerifyHistoryEnvelope(p, m.HistoryB); err != nil {
			return fmt.Errorf("audit: second history: %w", err)
		}
		if !forked(m.HistoryA.Resp.Records, m.HistoryB.Resp.Records, bytes.Equal) {
			return errors.New("audit: one history is a prefix of the other; no divergence")
		}
		return nil

	case MisbehaviorLogEquivocation:
		if m.Gossip == nil {
			return errors.New("audit: log-equivocation proof missing gossip evidence")
		}
		return gossip.VerifyEquivocationProof(m.Gossip)
	}
	return fmt.Errorf("audit: unknown misbehavior kind %q", m.Kind)
}

// attestedTogether reports whether a status and a history carry the same
// attestation: one quote (same signature, same report data) or one
// domain-0 host signature over the same HostReport.
func attestedTogether(st *domain.StatusResponse, h *domain.HistoryResponse) bool {
	if st.Quote != nil || h.Quote != nil {
		return st.Quote != nil && h.Quote != nil && st.Quote.ReportData == h.Quote.ReportData &&
			bytes.Equal(st.Quote.Signature, h.Quote.Signature)
	}
	return len(st.HostReport) != 0 && bytes.Equal(st.HostReport, h.HostReport) &&
		bytes.Equal(st.HostSig, h.HostSig)
}

// forked reports whether two histories part ways: neither is a prefix of
// the other. Two honest domains read on either side of an update hold
// one history and a prefix of it, never a fork.
func forked[T any](a, b []T, same func(x, y T) bool) bool {
	for i := 0; i < min(len(a), len(b)); i++ {
		if !same(a[i], b[i]) {
			return true
		}
	}
	return false
}
