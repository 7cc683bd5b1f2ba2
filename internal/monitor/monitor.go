// Package monitor implements a certificate-transparency-style public
// witness for distributed-trust deployments. The paper's audit protocol
// lets one client cross-check the n trust domains; a monitor closes the
// remaining gap — a domain showing *different* consistent views to
// different clients (a split view) — by having clients gossip the
// attested statuses they observe to a public, Merkle-logged witness:
//
//   - every submitted status envelope is re-verified, then appended to a
//     public sharded Merkle log (so the monitor itself is auditable via
//     inclusion/consistency proofs and signed tree heads);
//   - per domain, the monitor keeps the timeline of observed (counter,
//     log length, head) triples and flags any pair of observations that
//     contradict an honest append-only execution, emitting the same
//     publicly verifiable Misbehavior proofs as the audit package.
//
// This is the deployment of the paper's "clients and third-party
// auditors" role (§1, §3.3) on top of the aolog building block. The log
// is an aolog.ShardedLog so heavy gossip traffic stripes across shards,
// SubmitBatch ingests a whole gossip frame under one lock, and tree heads
// sign the super-root with the monitor's one BLS head key, so auditors
// verify heads in batches (audit.STHBatch, bls.VerifyBatch).
//
// The monitor is itself watched: the witness network (internal/gossip,
// cmd/auditord) cross-checks its BLS heads between observers and convicts
// a forked monitor with a portable equivocation proof. The monitor closes
// the loop as the slashing ledger — RecordLogEquivocation re-verifies a
// gossip conviction offline and appends it to this monitor's own public
// log.
//
// OWNS: the one tree-head key (keys/bls.key in a persistent directory)
// and every signature over a tree head — TreeHeadBLS is the only signer
// of heads in the repository; the public log and the order in which a
// leaf becomes durable, then visible, then covered by a head; the
// per-domain observation timelines, the alert list and the slashing
// ledger; the recovery check that the reopened log reproduces the last
// signed head.
//
// MUST NOT DO: serve reads itself — no cache, no published-head state,
// no subscriptions, no RPC kinds: that is internal/serve, which reads a
// monitor through serve.Backend; sign a head it has not first recorded
// in the store; advance the in-memory log before the WAL append is
// durable.
//
// MUST NOT import: any repro/internal package except aolog, audit, bls,
// gossip, obsv and store.
package monitor

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/store"
)

// DefaultShards is the stripe count of the monitor's public log.
const DefaultShards = 4

// Observation is one remembered attested status.
type Observation struct {
	Envelope audit.AttestedStatusEnvelope
	LogIndex int // index in the monitor's public Merkle log
}

// Monitor is a public witness. Safe for concurrent use.
type Monitor struct {
	params audit.Params
	blsKey *bls.SecretKey // the one tree-head key; fixed at construction

	mu         sync.Mutex
	log        *aolog.ShardedLog
	perDom     map[string][]Observation
	alerts     []audit.Misbehavior
	slashed    map[string]int  // equivocation-proof fingerprint -> log index
	logSources map[string]bool // hex BLS keys slashing reports may accuse
	appendHook func()          // see SetAppendHook; called with mu held

	// Persistence (nil/zero for in-memory monitors; see Open).
	store         *store.Store
	snapshotEvery int
	sinceSnap     int
	snapWriting   bool       // a background snapshot write is in flight
	snapDone      *sync.Cond // on mu; signaled when snapWriting clears
	persistErr    error      // sticky best-effort failure; see Err

	obs monitorObs // internal instruments; see RegisterMetrics

	// flight records monitor transitions (alerts raised, equivocation
	// convictions, persistence failures) once a daemon installs its
	// recorder via SetDiagnostics; nil-safe.
	flight atomic.Pointer[obsv.FlightRecorder]
}

// New creates a monitor for a deployment with DefaultShards log stripes.
// key signs tree heads; generate one per monitor identity.
func New(params audit.Params, key *bls.SecretKey) *Monitor {
	m, err := NewSharded(params, key, DefaultShards)
	if err != nil {
		panic("monitor: default shard count invalid: " + err.Error())
	}
	return m
}

// NewSharded creates a monitor whose public log stripes across the given
// number of shards.
func NewSharded(params audit.Params, key *bls.SecretKey, shards int) (*Monitor, error) {
	log, err := aolog.NewShardedLog(shards)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		params:     params,
		blsKey:     key,
		log:        log,
		perDom:     make(map[string][]Observation),
		slashed:    make(map[string]int),
		logSources: make(map[string]bool),
	}, nil
}

// RegisterLogSource pins a BLS tree-head key as a known log operator
// that slashing reports (RecordLogEquivocation) may accuse. Without
// this gate, anyone could mint a throwaway keypair, self-sign two
// conflicting heads, and grow the ledger with "convictions" of keys
// nobody deployed.
func (m *Monitor) RegisterLogSource(pk *bls.PublicKey) error {
	if pk == nil {
		return errors.New("monitor: nil log-source key")
	}
	kb := pk.Bytes()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logSources[hex.EncodeToString(kb[:])] = true
	return nil
}

// SetAppendHook registers fn to run whenever the public log grows (one
// call per accepted batch, not per leaf). The serve tier uses it as a
// level trigger to re-sign and push heads once per append batch instead
// of once per client. fn runs with the monitor lock held and MUST NOT
// block or call back into the monitor — a non-blocking channel send is
// the intended shape.
func (m *Monitor) SetAppendHook(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appendHook = fn
}

// notifyAppendLocked fires the append hook. Caller holds m.mu.
func (m *Monitor) notifyAppendLocked() {
	if m.appendHook != nil {
		m.appendHook()
	}
}

// BLSPublicKey returns the key tree heads verify under.
func (m *Monitor) BLSPublicKey() *bls.PublicKey {
	return m.blsKey.PublicKey()
}

// Submit verifies and ingests a status envelope observed by some client.
// It returns the Merkle log index of the accepted submission, and any
// misbehavior proof the new observation completes.
func (m *Monitor) Submit(env *audit.AttestedStatusEnvelope) (int, *audit.Misbehavior, error) {
	out := m.SubmitBatch([]*audit.AttestedStatusEnvelope{env})[0]
	return out.LogIndex, out.Alert, out.Err
}

// BatchOutcome is the per-envelope result of SubmitBatch. LogIndex is -1
// when the envelope was rejected (Err non-nil).
type BatchOutcome struct {
	LogIndex int
	Alert    *audit.Misbehavior
	Err      error
}

// SubmitBatch ingests a whole gossip frame at once: every envelope is
// verified up front (the expensive quote/signature checks happen outside
// the lock), then the accepted payloads are appended to the sharded log in
// one batch under a single lock acquisition. Outcomes are positional.
// Contradictions are detected against both earlier observations and
// earlier envelopes of the same batch.
func (m *Monitor) SubmitBatch(envs []*audit.AttestedStatusEnvelope) []BatchOutcome {
	out := make([]BatchOutcome, len(envs))
	type accepted struct {
		pos   int
		env   *audit.AttestedStatusEnvelope
		proof *audit.Misbehavior // pre-attributed wrong-measurement proof
	}
	var acc []accepted
	for i, env := range envs {
		if env == nil {
			out[i] = BatchOutcome{LogIndex: -1, Err: errors.New("monitor: rejecting submission: nil envelope")}
			continue
		}
		if err := audit.VerifyStatusEnvelope(&m.params, env); err != nil {
			// A wrong measurement is itself reportable; other verification
			// failures are unattributable garbage and rejected.
			if _, ok := err.(*audit.MeasurementError); ok {
				acc = append(acc, accepted{pos: i, env: env, proof: &audit.Misbehavior{
					Kind:    audit.MisbehaviorWrongMeasurement,
					Domain:  env.Resp.Domain,
					StatusA: env,
				}})
				continue
			}
			out[i] = BatchOutcome{LogIndex: -1, Err: fmt.Errorf("monitor: rejecting submission: %w", err)}
			continue
		}
		acc = append(acc, accepted{pos: i, env: env})
	}
	if len(acc) == 0 {
		return out
	}
	payloads := make([][]byte, len(acc))
	for k, a := range acc {
		payload, err := json.Marshal(a.env)
		if err != nil {
			panic("monitor: envelope must marshal: " + err.Error())
		}
		payloads[k] = payload
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Durability before acknowledgment: the WAL append (group-committed
	// fsync) happens before the in-memory log advances, so a signed head
	// can never cover a leaf a crash could lose.
	if err := m.appendDurable(payloads); err != nil {
		for _, a := range acc {
			out[a.pos] = BatchOutcome{LogIndex: -1, Err: fmt.Errorf("monitor: persisting submission: %w", err)}
		}
		return out
	}
	first := m.log.AppendBatch(payloads)
	for k, a := range acc {
		idx := first + k
		name := a.env.Resp.Domain
		proof := a.proof
		if proof == nil {
			for i := range m.perDom[name] {
				prev := &m.perDom[name][i].Envelope
				if p := contradiction(prev, a.env, name); p != nil {
					proof = p
					break
				}
			}
		}
		if proof != nil {
			m.alerts = append(m.alerts, *proof)
			m.obs.alerts.Inc()
			m.flight.Load().Record("monitor", "alert", proof.Domain, uint64(idx), obsv.TraceContext{})
		}
		m.perDom[name] = append(m.perDom[name], Observation{Envelope: *a.env, LogIndex: idx})
		out[a.pos] = BatchOutcome{LogIndex: idx, Alert: proof}
	}
	m.obs.appendedLeaves.Add(uint64(len(acc)))
	m.obs.rejected.Add(uint64(len(envs) - len(acc)))
	m.maybeSnapshotLocked(len(acc))
	m.notifyAppendLocked()
	return out
}

// contradiction decides whether two verified statuses from one domain
// are mutually inconsistent with honest append-only execution.
func contradiction(a, b *audit.AttestedStatusEnvelope, name string) *audit.Misbehavior {
	sa, sb := a.Resp.Status, b.Resp.Status
	switch {
	case sa.LogLen == sb.LogLen && !bytes.Equal(sa.LogHead, sb.LogHead):
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorEquivocation, Domain: name,
			StatusA: a, StatusB: b,
		}
	case sa.LogLen == sb.LogLen && sa.Version != sb.Version,
		sa.Version == sb.Version && sa.LogLen != sb.LogLen:
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorRollback, Domain: name,
			StatusA: a, StatusB: b,
		}
	case sb.Counter > sa.Counter && (sb.LogLen < sa.LogLen || sb.Version < sa.Version):
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorRollback, Domain: name,
			StatusA: a, StatusB: b,
		}
	case sa.Counter > sb.Counter && (sa.LogLen < sb.LogLen || sa.Version < sb.Version):
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorRollback, Domain: name,
			StatusA: b, StatusB: a,
		}
	}
	return nil
}

// RecordLogEquivocation is the slashing path for gossip-convicted log
// operators: the portable proof is verified offline, recorded as an
// audit.Misbehavior alert, and appended to the monitor's own public log —
// so the conviction is itself transparency-logged and any client that
// checks this monitor learns about the forked operator. Returns the log
// index of the recorded proof.
func (m *Monitor) RecordLogEquivocation(p *gossip.EquivocationProof) (int, error) {
	if p == nil {
		return -1, errors.New("monitor: nil equivocation report")
	}
	// Replays of a conviction already on the ledger are answered with the
	// original log index — before the expensive verification, so looping
	// one valid proof cannot grow the log or the alert list. Proofs
	// accusing unregistered keys are rejected outright (self-signed spam).
	fp := p.Fingerprint()
	m.mu.Lock()
	if idx, ok := m.slashed[fp]; ok {
		m.mu.Unlock()
		return idx, nil
	}
	known := m.logSources[hex.EncodeToString(p.SourcePK)]
	m.mu.Unlock()
	if !known {
		return -1, errors.New("monitor: proof accuses an unregistered log-source key")
	}
	if err := gossip.VerifyEquivocationProof(p); err != nil {
		return -1, fmt.Errorf("monitor: rejecting equivocation report: %w", err)
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return -1, fmt.Errorf("monitor: encoding equivocation report: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx, ok := m.slashed[fp]; ok { // raced with another reporter
		return idx, nil
	}
	if err := m.appendDurable([][]byte{payload}); err != nil {
		return -1, fmt.Errorf("monitor: persisting equivocation report: %w", err)
	}
	idx := m.log.Append(payload)
	m.slashed[fp] = idx
	m.alerts = append(m.alerts, audit.Misbehavior{
		Kind:   audit.MisbehaviorLogEquivocation,
		Domain: p.Source,
		Gossip: p,
	})
	m.obs.appendedLeaves.Inc()
	m.obs.alerts.Inc()
	m.obs.equivocations.Inc()
	m.flight.Load().Record("monitor", "equivocation", p.Source, uint64(idx), obsv.TraceContext{})
	m.maybeSnapshotLocked(1)
	m.notifyAppendLocked()
	return idx, nil
}

// Alerts returns all misbehavior proofs accumulated so far.
func (m *Monitor) Alerts() []audit.Misbehavior {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]audit.Misbehavior{}, m.alerts...)
}

// TreeHeadBLS signs the current head of the monitor's public log: (total
// size, super-root). The head is recorded in the store before it is
// returned, so recovery can check the durable log against it; a head that
// cannot be recorded is not handed out.
func (m *Monitor) TreeHeadBLS() (aolog.BLSSignedHead, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := aolog.SignHeadBLS(m.blsKey, uint64(m.log.Len()), m.log.SuperRoot())
	if err := m.persistHeadLocked(h.Size, h.Head, h.Signature); err != nil {
		return aolog.BLSSignedHead{}, err
	}
	m.obs.headsSignedBLS.Inc()
	return h, nil
}

// NumShards reports the public log's stripe count (proof verifiers need
// it only via the proofs themselves, which carry it).
func (m *Monitor) NumShards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.NumShards()
}

// Len reports the public log's current total size.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Len()
}

// ProveInclusionAt returns the payload at global index plus its inclusion
// proof against the super-root at tree size n (n <= current size). Proofs
// against a FIXED past size are immutable facts about an append-only log,
// which is what makes them cacheable by the serve tier: the proof for
// (index, n) never changes as the log grows.
func (m *Monitor) ProveInclusionAt(index, n int) ([]byte, *aolog.ShardInclusionProof, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	payload, err := m.log.Entry(index)
	if err != nil {
		return nil, nil, err
	}
	proof, err := m.log.ProveInclusionAt(index, n)
	if err != nil {
		return nil, nil, err
	}
	return payload, proof, nil
}

// ProveConsistencyBetween proves append-only growth between two fixed
// sizes. Like ProveInclusionAt, the result is immutable once both sizes
// are in the past, so the serve tier caches it per (old, new) range.
func (m *Monitor) ProveConsistencyBetween(oldSize, newSize int) (*aolog.ShardConsistencyProof, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.ProveConsistencyBetween(oldSize, newSize)
}

// Observations returns the recorded observation count for a domain.
func (m *Monitor) Observations(domain string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.perDom[domain])
}
