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
//     version, log length, head) keys and flags any pair of observations
//     that contradict an honest append-only execution, emitting the same
//     publicly verifiable Misbehavior proofs as the audit package. A key
//     is a few words with no pointers; the envelope it came from is a
//     log leaf, re-read by index only when a proof has to be built.
//
// This is the deployment of the paper's "clients and third-party
// auditors" role (§1, §3.3) on top of the aolog building block. The log
// is an aolog.ShardedLog so heavy gossip traffic stripes across shards,
// SubmitBatch ingests a whole gossip frame under one lock, and tree heads
// sign the super-root with the monitor's one BLS head key, so a head and
// the witness cosignatures over it verify in one multi-pairing
// (gossip.VerifyCosignedHead, bls.VerifyBatch).
//
// The monitor is itself watched: the witness network (internal/gossip,
// cmd/auditord) cross-checks its BLS heads between observers and convicts
// a forked monitor with a portable equivocation proof. The monitor closes
// the loop as the slashing ledger — RecordLogEquivocation re-verifies a
// gossip conviction offline and appends it to this monitor's own public
// log.
//
// OWNS: the one tree-head key (keys/bls.key in a persistent directory)
// and every signature over a tree head — the commit path and
// TreeHeadBLS are the only signers of heads in the repository; the
// public log and the order in which a batch is staged, signed over,
// made durable with its head in one commit, and only then visible; the
// per-domain observation timelines, the alert list and the slashing
// ledger; the recovery check that the reopened log reproduces the last
// signed head.
//
// MUST NOT DO: serve reads itself — no cache, no published-head state,
// no subscriptions, no RPC kinds: that is internal/serve, which reads a
// monitor through serve.Backend; hand out a head before the store says
// it is durable; let a length, proof, observation, alert or append hook
// see a staged batch before its commit is durable; keep a second copy
// of an observed envelope beside the log leaf.
//
// MUST NOT import: any repro/internal package except aolog, audit, bls,
// gossip, obsv and store.
package monitor

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/store"
)

// DefaultShards is the stripe count of the monitor's public log.
const DefaultShards = 4

// Monitor is a public witness. Safe for concurrent use.
type Monitor struct {
	params audit.Params
	blsKey *bls.SecretKey // the one tree-head key; fixed at construction

	mu         sync.Mutex
	log        *aolog.ShardedLog
	perDom     map[string]*timeline
	alerts     []audit.Misbehavior
	slashed    map[string]int  // equivocation-proof fingerprint -> log index
	logSources map[string]bool // hex BLS keys slashing reports may accuse
	appendHook func()          // see SetAppendHook; called with mu held
	// head is the signed head at the log's current size, when one has
	// been signed there: by the commit that reached the size, or by
	// TreeHeadBLS. Nil until then.
	head *aolog.BLSSignedHead

	// Persistence (nil/zero for in-memory monitors; see Open).
	store         *store.Store
	snapshotEvery int
	sinceSnap     int
	snapWriting   bool       // a background snapshot write is in flight
	snapDone      *sync.Cond // on mu; signaled when snapWriting clears
	persistErr    error      // sticky best-effort failure; see Err
	commitErr     error      // sticky: the first failed commit; see commitLocked

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
	return newMonitor(params, key, log), nil
}

// newMonitor is the state both constructors share: everything derived
// from the log starts empty.
func newMonitor(params audit.Params, key *bls.SecretKey, log *aolog.ShardedLog) *Monitor {
	m := &Monitor{
		params:     params,
		blsKey:     key,
		log:        log,
		perDom:     make(map[string]*timeline),
		slashed:    make(map[string]int),
		logSources: make(map[string]bool),
	}
	m.obs.headSign = obsv.NewHistogram(nil)
	return m
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
// call per accepted batch, not per leaf), after the batch's commit is
// durable. The serve tier uses it as a level trigger to publish and
// push the committed head once per append batch instead of once per
// client. fn runs with the monitor lock held and MUST NOT block or call
// back into the monitor — a non-blocking channel send is the intended
// shape.
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
	// Durability before acknowledgment: the batch and the head signed
	// over it become durable in one commit (one WAL write, one fsync)
	// before any outcome, observation, alert or hook sees the batch, so
	// a head can never cover a leaf a crash could lose.
	first, err := m.commitLocked(payloads)
	if err != nil {
		for _, a := range acc {
			out[a.pos] = BatchOutcome{LogIndex: -1, Err: fmt.Errorf("monitor: persisting submission: %w", err)}
		}
		return out
	}
	for k, a := range acc {
		idx := first + k
		proof, err := m.observeLocked(a.env, idx, a.proof)
		if err != nil {
			// Every observation leaf was encoded here or decoded at Open.
			panic("monitor: logged observation unreadable: " + err.Error())
		}
		if proof != nil {
			m.alerts = append(m.alerts, *proof)
			m.obs.alerts.Inc()
			m.flight.Load().Record("monitor", "alert", proof.Domain, uint64(idx), obsv.TraceContext{})
		}
		out[a.pos] = BatchOutcome{LogIndex: idx, Alert: proof}
	}
	m.obs.appendedLeaves.Add(uint64(len(acc)))
	m.obs.rejected.Add(uint64(len(envs) - len(acc)))
	m.maybeSnapshotLocked(len(acc))
	m.notifyAppendLocked()
	return out
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
	idx, err := m.commitLocked([][]byte{payload})
	if err != nil {
		return -1, fmt.Errorf("monitor: persisting equivocation report: %w", err)
	}
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

// TreeHeadBLS returns the signed head of the monitor's public log at
// its current size: (total size, super-root). A persistent monitor
// signed it inside the commit that reached this size, so this is a
// lookup. Where no head was signed at the current size — an empty log,
// the first call after Open, a WAL that ends in leaves journaled before
// commits carried heads, any new size of a monitor without a store — it
// signs one and records it in the store before returning it, so
// recovery can check the durable log against it; a head that cannot be
// recorded is not handed out.
func (m *Monitor) TreeHeadBLS() (aolog.BLSSignedHead, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == nil || int(m.head.Size) != m.log.Len() {
		h := m.signHeadLocked()
		if m.store != nil {
			if err := m.store.PutHead(headRecord(&h)); err != nil {
				return aolog.BLSSignedHead{}, err
			}
		}
		m.head = &h
	}
	h := *m.head
	h.Signature = slices.Clone(h.Signature)
	return h, nil
}

// signHeadLocked signs (size, super-root) of the log as it stands.
// Caller holds m.mu.
func (m *Monitor) signHeadLocked() aolog.BLSSignedHead {
	start := time.Now()
	h := aolog.SignHeadBLS(m.blsKey, uint64(m.log.Len()), m.log.SuperRoot())
	m.obs.headSign.ObserveDuration(time.Since(start))
	m.obs.headsSignedBLS.Inc()
	return h
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
// (index, n) never changes as the log grows. The payload is the log's own
// stored bytes, not a copy: callers only read it.
func (m *Monitor) ProveInclusionAt(index, n int) ([]byte, *aolog.ShardInclusionProof, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	payload, err := m.log.EntryView(index)
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
	if t := m.perDom[domain]; t != nil {
		return len(t.keys)
	}
	return 0
}
