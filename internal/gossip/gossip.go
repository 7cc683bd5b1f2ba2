// Package gossip implements the witness network that closes the paper's
// remaining split-view gap at scale. PR 1's monitor made every observed
// attested status public in a sharded Merkle log with BLS-signed tree
// heads — but nothing cross-checked those heads *between observers*, so a
// monitor could still show one log to client A and another to client B
// and neither would notice ("equivocation").
//
// A gossip deployment adds a set of witnesses (auditors and monitors
// acting as peers) that:
//
//   - exchange the BLS-signed tree heads they observe from each log
//     source (gossip_heads / pollinate RPC kinds);
//   - maintain a per-source frontier, advancing it only through verified
//     sharded consistency proofs (aolog.VerifyShardConsistency), so a
//     cosigned frontier is known to be append-only;
//   - countersign heads whose consistency they verified (witness
//     cosigning) — a client then accepts a head only with a configurable
//     quorum of cosignatures, checked together with the source's own
//     signature in ONE bls.VerifyBatch multi-pairing (VerifyCosignedHead);
//   - emit portable EquivocationProofs — two validly-signed heads for the
//     same size with different roots, or a signed head whose own
//     consistency proof contradicts an earlier signed head — that any
//     third party verifies offline with VerifyEquivocationProof.
//
// Millions of auditing clients cannot replay every monitor log; with this
// layer they check one quorum-cosigned frontier per source per round (a
// single batched pairing check), and the heavy lifting — consistency
// replay, cross-observer comparison — amortizes over the witness set.
package gossip

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/obsv"
	"repro/internal/store"
)

// Source identifies one log operator (in our deployment, a monitor) by
// its BLS tree-head key.
type Source struct {
	Name string
	Key  *bls.PublicKey
}

// Config describes one witness's identity. The sources it watches and
// the cosigners it accepts besides itself are added once it exists
// (AddSource, AddWitness).
type Config struct {
	// Name is the witness's label in gossip messages (informative).
	Name string
	// Key is the witness's BLS cosigning identity.
	Key *bls.SecretKey
}

// sourceState is a witness's memory of one log source.
type sourceState struct {
	name string
	pk   *bls.PublicKey
	pkb  []byte // compressed key, bound into cosign messages

	// heads holds every validly-signed head seen, by size. Any entry is a
	// genuine commitment by the source (the signature verified), so the
	// map doubles as the evidence base for same-size fork detection.
	heads map[uint64]aolog.BLSSignedHead
	// cosigned marks sizes whose consistency this witness verified.
	cosigned map[uint64]bool
	// frontier is the largest cosigned size; valid when hasFrontier.
	frontier    uint64
	hasFrontier bool
	// maxSeen is the largest validly-signed size recorded (cosigned or
	// not) — the frontier-lag gauge reports maxSeen-frontier.
	maxSeen uint64
	// cosigs accumulates cosignatures by size, keyed by witness key hex.
	// Only cosignatures over the recorded head at that size are kept.
	cosigs map[uint64]map[string]Cosignature
}

// Witness is one peer in the gossip network. Safe for concurrent use.
type Witness struct {
	name string
	sk   *bls.SecretKey
	pk   *bls.PublicKey
	pkb  []byte

	mu          sync.Mutex
	sources     map[string]*sourceState   // by source name
	sourcesByPK map[string]*sourceState   // by source key hex (canonical)
	witnesses   map[string]*bls.PublicKey // accepted cosigners by key hex
	proofs      []EquivocationProof
	proofKeys   map[string]bool // dedupe

	// Persistence (nil for in-memory witnesses; see OpenWitness).
	journal    *store.Journal
	journalErr error
	replaying  bool
	pendingEv  map[string][]pendingEvent // replayed events awaiting their source

	obs gossipObs // internal instruments; see RegisterMetrics

	// flight records witness transitions (cosigned frontier advances,
	// equivocation convictions, journal failure) once a daemon installs
	// its recorder via SetFlightRecorder; nil-safe, loaded off-lock.
	flight atomic.Pointer[obsv.FlightRecorder]
}

// NewWitness creates a witness from a config, watching no source yet.
// Its own key is always part of the accepted cosigner set.
func NewWitness(cfg Config) (*Witness, error) {
	if cfg.Key == nil {
		return nil, errors.New("gossip: witness needs a BLS key")
	}
	pk := cfg.Key.PublicKey()
	pkb := pk.Bytes()
	w := &Witness{
		name:        cfg.Name,
		sk:          cfg.Key,
		pk:          pk,
		pkb:         pkb[:],
		sources:     make(map[string]*sourceState),
		sourcesByPK: make(map[string]*sourceState),
		witnesses:   make(map[string]*bls.PublicKey),
		proofs:      nil,
		proofKeys:   make(map[string]bool),
		obs:         newGossipObs(),
	}
	w.witnesses[hex.EncodeToString(pkb[:])] = pk
	return w, nil
}

// Name returns the witness's label.
func (w *Witness) Name() string { return w.name }

// PublicKey returns the witness's cosigning key.
func (w *Witness) PublicKey() *bls.PublicKey { return w.pk }

// AddSource registers a log source to watch.
func (w *Witness) AddSource(s Source) error {
	if s.Name == "" || s.Key == nil {
		return errors.New("gossip: source needs a name and a key")
	}
	kb := s.Key.Bytes()
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sources[s.Name]; ok {
		return fmt.Errorf("gossip: duplicate source %q", s.Name)
	}
	keyHex := hex.EncodeToString(kb[:])
	if st, ok := w.sourcesByPK[keyHex]; ok {
		// Same operator under a second local label: alias the existing
		// state so heads and cosignatures stay unified per identity.
		w.sources[s.Name] = st
		return nil
	}
	st := &sourceState{
		name:     s.Name,
		pk:       s.Key,
		pkb:      kb[:],
		heads:    make(map[uint64]aolog.BLSSignedHead),
		cosigned: make(map[uint64]bool),
		cosigs:   make(map[uint64]map[string]Cosignature),
	}
	w.sources[s.Name] = st
	w.sourcesByPK[keyHex] = st
	// A recovered journal may hold evidence for this source from before
	// the restart; it applies the moment the source is reintroduced.
	w.applyPendingLocked(keyHex, st)
	return nil
}

// AddWitness extends the accepted cosigner set.
func (w *Witness) AddWitness(pk *bls.PublicKey) error {
	if pk == nil {
		return errors.New("gossip: nil witness key")
	}
	kb := pk.Bytes()
	w.mu.Lock()
	defer w.mu.Unlock()
	key := hex.EncodeToString(kb[:])
	if _, ok := w.witnesses[key]; !ok {
		w.witnesses[key] = pk
		if w.journal != nil && w.journalErr == nil {
			if err := w.journal.Append(evWitness, kb[:]); err != nil {
				w.journalErr = err
			}
			w.syncJournalLocked()
		}
	}
	return nil
}

// SourceNames lists the watched sources.
func (w *Witness) SourceNames() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.sources))
	for name := range w.sources {
		out = append(out, name)
	}
	return out
}

// IngestResult is the outcome of ingesting one observed head.
type IngestResult struct {
	// Accepted means the head's consistency was verified (or it extended
	// an empty frontier) and this witness cosigned it.
	Accepted bool
	// Recorded means the head carried a valid source signature and was
	// remembered as evidence, even if not cosigned (e.g. it is behind the
	// frontier with no anchor, or its consistency proof was missing).
	Recorded bool
	// Cosig is this witness's cosignature when Accepted.
	Cosig *Cosignature
	// Proof is non-nil when the head convicts the source of a fork.
	Proof *EquivocationProof
	// Err reports why a head was rejected outright (unknown source,
	// invalid signature, ...). Rejected heads are neither recorded nor
	// cosigned.
	Err error
}

// Ingest processes one observed source head. cons optionally links the
// head to this witness's current frontier for the source (required to
// advance a non-empty frontier).
func (w *Witness) Ingest(source string, head aolog.BLSSignedHead, cons *aolog.ShardConsistencyProof) IngestResult {
	out := w.IngestBatch([]GossipHead{{Source: source, Head: head, Consistency: cons}})
	return out[0]
}

// IngestBatch processes a whole gossip frame: every source signature and
// every cosignature in the frame is checked in ONE bls.VerifyBatch
// multi-pairing (with per-item attribution on failure), then the frontier
// logic runs under a single lock acquisition. Outcomes are positional.
func (w *Witness) IngestBatch(ghs []GossipHead) []IngestResult {
	out := make([]IngestResult, len(ghs))
	w.obs.ingested.Add(uint64(len(ghs)))

	// Resolve sources and build the combined verification batch.
	type item struct {
		st      *sourceState
		headOK  bool
		cosigOK []bool // positional with ghs[i].Cosigs
	}
	items := make([]item, len(ghs))
	var pks []*bls.PublicKey
	var msgs [][]byte
	var sigs []*bls.Signature
	// where[j] records which (item, cosig index) batch entry j verifies;
	// cosig index -1 means the item's head signature.
	type ref struct{ i, c int }
	var where []ref

	w.mu.Lock()
	for i := range ghs {
		// The canonical identity is the source key; the label is the
		// SENDER'S local name and may differ from ours, so key-based
		// resolution comes first.
		var st *sourceState
		var ok bool
		if len(ghs[i].SourcePK) > 0 {
			st, ok = w.sourcesByPK[hex.EncodeToString(ghs[i].SourcePK)]
		}
		if !ok {
			st, ok = w.sources[ghs[i].Source]
		}
		if !ok {
			out[i].Err = fmt.Errorf("gossip: unknown source %q", ghs[i].Source)
			continue
		}
		items[i].st = st
		items[i].cosigOK = make([]bool, len(ghs[i].Cosigs))
		// Steady-state skip: a head whose root equals the one already
		// recorded (and verified) at that size needs no new pairing work
		// — idle gossip rounds re-send the same frontiers every time.
		if prev, ok := st.heads[ghs[i].Head.Size]; ok && prev.Head == ghs[i].Head.Head {
			items[i].headOK = true
		} else {
			var sig bls.Signature
			if err := sig.SetBytes(ghs[i].Head.Signature); err != nil {
				out[i].Err = errors.New("gossip: malformed head signature")
				items[i].st = nil
				continue
			}
			pks = append(pks, st.pk)
			msgs = append(msgs, aolog.HeadMessage(ghs[i].Head.Size, ghs[i].Head.Head))
			s := sig
			sigs = append(sigs, &s)
			where = append(where, ref{i: i, c: -1})
		}
		for c := range ghs[i].Cosigs {
			co := &ghs[i].Cosigs[c]
			key := hex.EncodeToString(co.Witness)
			wpk, known := w.witnesses[key]
			if !known {
				continue // cosigners outside the accepted set are ignored
			}
			// Already merged byte-identically: nothing to verify or store.
			if m := st.cosigs[ghs[i].Head.Size]; m != nil {
				if have, ok := m[key]; ok && bytes.Equal(have.Sig, co.Sig) {
					continue
				}
			}
			var csig bls.Signature
			if err := csig.SetBytes(co.Sig); err != nil {
				continue
			}
			pks = append(pks, wpk)
			msgs = append(msgs, CosignMessage(st.pkb, ghs[i].Head.Size, ghs[i].Head.Head))
			cs := csig
			sigs = append(sigs, &cs)
			where = append(where, ref{i: i, c: c})
		}
	}
	w.mu.Unlock()

	// One multi-pairing for the whole frame; attribute per entry only if
	// the combined check fails (the honest-frame fast path stays batched).
	if len(sigs) > 0 {
		verifyStart := time.Now()
		defer func() { w.obs.observeVerify(len(sigs), verifyStart) }()
		if bls.VerifyBatch(pks, msgs, sigs) {
			for _, r := range where {
				if r.c < 0 {
					items[r.i].headOK = true
				} else {
					items[r.i].cosigOK[r.c] = true
				}
			}
		} else {
			for j, r := range where {
				if bls.Verify(pks[j], msgs[j], sigs[j]) {
					if r.c < 0 {
						items[r.i].headOK = true
					} else {
						items[r.i].cosigOK[r.c] = true
					}
				}
			}
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range ghs {
		if items[i].st == nil {
			w.obs.rejected.Inc()
			continue
		}
		if !items[i].headOK {
			out[i].Err = errors.New("gossip: head signature invalid")
			w.obs.rejected.Inc()
			continue
		}
		out[i] = w.ingestLocked(items[i].st, &ghs[i])
		if out[i].Accepted {
			w.obs.accepted.Inc()
		}
		// Merge the frame's valid cosignatures over the recorded head.
		if out[i].Recorded {
			for c, ok := range items[i].cosigOK {
				if ok {
					w.mergeCosigLocked(items[i].st, ghs[i].Head, ghs[i].Cosigs[c])
				}
			}
		}
		w.updateFrontierLocked(items[i].st)
	}
	// One fsync covers the whole frame's journaled evidence.
	w.syncJournalLocked()
	return out
}

// ingestLocked runs the frontier state machine for one signature-verified
// head. Caller holds w.mu.
func (w *Witness) ingestLocked(st *sourceState, gh *GossipHead) IngestResult {
	head, cons := gh.Head, gh.Consistency

	// Same-size fork detection needs only signatures: every recorded head
	// is a genuine commitment by the source.
	if prev, ok := st.heads[head.Size]; ok {
		if prev.Head != head.Head {
			proof := &EquivocationProof{
				Source:   st.name,
				SourcePK: append([]byte{}, st.pkb...),
				A:        prev,
				B:        head,
			}
			w.recordProofLocked(proof)
			return IngestResult{Proof: proof}
		}
		if st.cosigned[head.Size] {
			co := w.cosignLocked(st, head)
			return IngestResult{Accepted: true, Recorded: true, Cosig: &co}
		}
		// Recorded earlier without a cosignature (no anchor at the time);
		// fall through — this call may carry the missing consistency
		// proof.
	}

	// record journals a head kept as evidence (or, when cosigned, as the
	// new frontier candidate) so it survives a witness restart. Only
	// state CHANGES are journaled: peers re-gossip the same frontiers
	// every round, and re-journaling an identical head each time would
	// grow the journal without bound at steady state.
	record := func(cosigned bool) {
		prev, had := st.heads[head.Size]
		changed := !had || prev.Head != head.Head || (cosigned && !st.cosigned[head.Size])
		st.heads[head.Size] = head
		if head.Size > st.maxSeen {
			st.maxSeen = head.Size
		}
		if changed {
			w.journalEvent(evHead, &headEvent{SourcePK: st.pkb, Head: head, Cosigned: cosigned})
		}
	}

	accept := func() IngestResult {
		record(true)
		st.cosigned[head.Size] = true
		if !st.hasFrontier || head.Size > st.frontier {
			st.frontier = head.Size
			st.hasFrontier = true
			w.flight.Load().Record("gossip", "frontier_advance", st.name, head.Size, obsv.TraceContext{})
		}
		co := w.cosignLocked(st, head)
		return IngestResult{Accepted: true, Recorded: true, Cosig: &co}
	}

	// First contact: nothing to check consistency against; cosign on
	// trust-of-first-use. Split views across witnesses surface as soon as
	// the witnesses gossip (their first-contact heads collide by size).
	if !st.hasFrontier {
		return accept()
	}

	if head.Size > st.frontier {
		front := st.heads[st.frontier]
		if cons == nil {
			record(false) // evidence, but no cosignature
			return IngestResult{Recorded: true}
		}
		if cons.OldSize != int(front.Size) || cons.NewSize != int(head.Size) {
			record(false)
			return IngestResult{Recorded: true}
		}
		if aolog.VerifyShardConsistency(front.Head, head.Head, cons) {
			return accept()
		}
		// The proof failed against our cosigned frontier. If it is valid
		// against its OWN old root, the source has committed to a log
		// whose prefix at front.Size differs from the head it signed
		// earlier — a portable conviction (see VerifyEquivocationProof).
		if x, err := cons.OldSuperRoot(); err == nil && x != front.Head &&
			aolog.VerifyShardConsistency(x, head.Head, cons) {
			proof := &EquivocationProof{
				Source:      st.name,
				SourcePK:    append([]byte{}, st.pkb...),
				A:           front,
				B:           head,
				Consistency: cons,
			}
			w.recordProofLocked(proof)
			record(false)
			return IngestResult{Recorded: true, Proof: proof}
		}
		// Malformed proof from an untrusted relay: keep the head as
		// evidence but do not cosign or accuse.
		record(false)
		return IngestResult{Recorded: true}
	}

	// Behind the frontier at an unseen size: we cannot anchor a
	// consistency check backwards, so record without cosigning.
	record(false)
	return IngestResult{Recorded: true}
}

// cosignLocked produces (and remembers) this witness's cosignature over a
// head it has verified. Caller holds w.mu.
func (w *Witness) cosignLocked(st *sourceState, head aolog.BLSSignedHead) Cosignature {
	key := hex.EncodeToString(w.pkb)
	if m := st.cosigs[head.Size]; m != nil {
		if co, ok := m[key]; ok {
			return co
		}
	}
	sig := w.sk.Sign(CosignMessage(st.pkb, head.Size, head.Head))
	sb := sig.Bytes()
	co := Cosignature{Witness: append([]byte{}, w.pkb...), Sig: sb[:]}
	w.obs.cosigns.Inc()
	if st.cosigs[head.Size] == nil {
		st.cosigs[head.Size] = make(map[string]Cosignature)
	}
	st.cosigs[head.Size][key] = co
	w.journalEvent(evCosig, &cosigEvent{SourcePK: st.pkb, Head: head, Cosig: co})
	return co
}

// mergeCosigLocked stores a signature-verified cosignature, provided the
// head it covers is the recorded head at that size. A byte-identical
// cosignature already held is a no-op (and, importantly, is NOT
// re-journaled — idle gossip rounds re-send the same frontiers forever
// and must not grow the journal). Caller holds w.mu.
func (w *Witness) mergeCosigLocked(st *sourceState, head aolog.BLSSignedHead, co Cosignature) {
	rec, ok := st.heads[head.Size]
	if !ok || rec.Head != head.Head {
		return
	}
	key := hex.EncodeToString(co.Witness)
	if have, ok := st.cosigs[head.Size][key]; ok && bytes.Equal(have.Sig, co.Sig) {
		return
	}
	if st.cosigs[head.Size] == nil {
		st.cosigs[head.Size] = make(map[string]Cosignature)
	}
	st.cosigs[head.Size][key] = co
	w.obs.cosigsMerged.Inc()
	w.journalEvent(evCosig, &cosigEvent{SourcePK: st.pkb, Head: head, Cosig: co})
}

// recordProofLocked appends a new equivocation proof, deduplicating
// byte-identical convictions. Caller holds w.mu.
func (w *Witness) recordProofLocked(p *EquivocationProof) {
	key := p.Fingerprint()
	if w.proofKeys[key] {
		return
	}
	w.proofKeys[key] = true
	w.proofs = append(w.proofs, *p)
	w.flight.Load().Record("gossip", "equivocation", p.Source, p.B.Size, obsv.TraceContext{})
	w.journalEvent(evProof, p)
}

// Proofs returns every equivocation proof this witness has produced or
// verified from peers.
func (w *Witness) Proofs() []EquivocationProof {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]EquivocationProof{}, w.proofs...)
}

// AddProof verifies a proof received from a peer and records it. Proofs
// already held are skipped before the (expensive) verification, so a
// round that relays the same conviction from every peer pays one
// verification total. Proofs accusing keys this witness does not watch
// are rejected without verification: anyone can self-convict a throwaway
// keypair, so an unknown SourcePK is spam, not evidence.
func (w *Witness) AddProof(p *EquivocationProof) error {
	if p == nil {
		return errors.New("gossip: nil proof")
	}
	key := p.Fingerprint()
	w.mu.Lock()
	seen := w.proofKeys[key]
	_, known := w.sourcesByPK[hex.EncodeToString(p.SourcePK)]
	w.mu.Unlock()
	if seen {
		return nil
	}
	if !known {
		return errors.New("gossip: proof accuses an unwatched source key")
	}
	if err := VerifyEquivocationProof(p); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recordProofLocked(p)
	w.syncJournalLocked()
	return nil
}

// Frontier returns the cosigned frontier head for a source, or false when
// the witness has not accepted any head yet.
func (w *Witness) Frontier(source string) (aolog.BLSSignedHead, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.sources[source]
	if !ok || !st.hasFrontier {
		return aolog.BLSSignedHead{}, false
	}
	return st.heads[st.frontier], true
}

// FrontierHeads returns one GossipHead per source with a frontier, each
// carrying every accumulated cosignature — the message body a witness
// pushes to its peers.
func (w *Witness) FrontierHeads() []GossipHead {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []GossipHead
	for _, st := range w.sources {
		if !st.hasFrontier {
			continue
		}
		gh := GossipHead{
			Source:   st.name,
			SourcePK: append([]byte{}, st.pkb...),
			Head:     st.heads[st.frontier],
		}
		for _, co := range st.cosigs[st.frontier] {
			gh.Cosigs = append(gh.Cosigs, co)
		}
		out = append(out, gh)
	}
	return out
}
