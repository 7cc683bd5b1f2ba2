package gossip

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/obsv"
	"repro/internal/store"
)

// Witness persistence: a witness's evidence base — every validly-signed
// head it recorded, every cosignature it produced or merged, every
// equivocation proof — is journaled to an append-only event log with
// the store package's framing (torn tails from a crash are dropped on
// reopen). Its BLS cosigning identity lives in a key file beside the
// journal, so a restarted witness is the SAME witness: peers' quorums
// still count its old cosignatures, and its frontiers resume where they
// were instead of re-bootstrapping trust-on-first-use (which is exactly
// the window an equivocating source needs).
//
// Events reference sources by their BLS key. A witness opens knowing no
// source (auditord fetches them after opening, before gossiping), so
// every replayed head and cosignature event is parked and applied when
// AddSource introduces its key.
const (
	witnessKeyFile      = "witness-bls.key"
	witnessJournal      = "witness.journal"
	evHead         byte = 1
	evCosig        byte = 2
	evProof        byte = 3
	evWitness      byte = 4
)

type headEvent struct {
	SourcePK []byte              `json:"source_pk"`
	Head     aolog.BLSSignedHead `json:"head"`
	Cosigned bool                `json:"cosigned"`
}

type cosigEvent struct {
	SourcePK []byte              `json:"source_pk"`
	Head     aolog.BLSSignedHead `json:"head"`
	Cosig    Cosignature         `json:"cosig"`
}

// pendingEvent parks a replayed event until its source is registered.
type pendingEvent struct {
	kind    byte
	payload []byte
}

// WitnessRecovery reports what OpenWitness replayed from the journal.
type WitnessRecovery struct {
	Heads  int // head events parked until AddSource
	Cosigs int // cosignature events parked until AddSource
	Proofs int // equivocation proofs restored
}

// OpenWitness creates or recovers a persistent witness rooted at dir.
// When cfg.Key is nil the cosigning key is loaded from (or minted into)
// dir, giving the witness a stable identity across restarts. The
// journal is replayed without re-verifying signatures — every event was
// verified before it was written.
func OpenWitness(dir string, cfg Config) (*Witness, *WitnessRecovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if cfg.Key == nil {
		raw, _, err := store.LoadOrCreateKeyFile(filepath.Join(dir, witnessKeyFile), func() ([]byte, error) {
			sk, _, err := bls.GenerateKey()
			if err != nil {
				return nil, err
			}
			return sk.Bytes(), nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("gossip: witness key: %w", err)
		}
		cfg.Key, err = bls.SecretKeyFromBytes(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("gossip: witness key file: %w", err)
		}
	}
	w, err := NewWitness(cfg)
	if err != nil {
		return nil, nil, err
	}
	stats := &WitnessRecovery{}
	w.replaying = true
	j, err := store.OpenJournal(filepath.Join(dir, witnessJournal), func(kind byte, payload []byte) error {
		return w.replayEvent(kind, payload, stats)
	})
	w.replaying = false
	if err != nil {
		return nil, nil, fmt.Errorf("gossip: witness journal: %w", err)
	}
	w.journal = j
	return w, stats, nil
}

// replayEvent applies one journaled event during OpenWitness. Called
// before the witness is shared, so no locking.
func (w *Witness) replayEvent(kind byte, payload []byte, stats *WitnessRecovery) error {
	switch kind {
	case evHead:
		var ev headEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("head event: %w", err)
		}
		stats.Heads++
		w.parkEvent(ev.SourcePK, kind, payload)
	case evCosig:
		var ev cosigEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("cosig event: %w", err)
		}
		stats.Cosigs++
		w.parkEvent(ev.SourcePK, kind, payload)
	case evProof:
		var p EquivocationProof
		if err := json.Unmarshal(payload, &p); err != nil {
			return fmt.Errorf("proof event: %w", err)
		}
		stats.Proofs++
		w.recordProofLocked(&p)
	case evWitness:
		pk := new(bls.PublicKey)
		if err := pk.SetBytes(payload); err != nil {
			return fmt.Errorf("witness-key event: %w", err)
		}
		w.witnesses[hex.EncodeToString(payload)] = pk
	default:
		return fmt.Errorf("unknown event kind %d", kind)
	}
	return nil
}

func (w *Witness) parkEvent(sourcePK []byte, kind byte, payload []byte) {
	if w.pendingEv == nil {
		w.pendingEv = make(map[string][]pendingEvent)
	}
	key := hex.EncodeToString(sourcePK)
	w.pendingEv[key] = append(w.pendingEv[key], pendingEvent{kind: kind, payload: append([]byte(nil), payload...)})
}

// applyPendingLocked replays parked events once their source appears.
// Caller holds w.mu (or is still constructing the witness).
func (w *Witness) applyPendingLocked(keyHex string, st *sourceState) {
	for _, ev := range w.pendingEv[keyHex] {
		switch ev.kind {
		case evHead:
			var e headEvent
			if json.Unmarshal(ev.payload, &e) == nil {
				applyHeadEvent(st, &e)
			}
		case evCosig:
			var e cosigEvent
			if json.Unmarshal(ev.payload, &e) == nil {
				applyCosigEvent(st, &e)
			}
		}
	}
	delete(w.pendingEv, keyHex)
}

// applyHeadEvent restores a recorded head. A conflicting head already
// in place wins: at runtime the second head of a same-size fork is
// never stored either (the fork becomes an EquivocationProof, which has
// its own event).
func applyHeadEvent(st *sourceState, ev *headEvent) {
	if prev, ok := st.heads[ev.Head.Size]; ok && prev.Head != ev.Head.Head {
		return
	}
	st.heads[ev.Head.Size] = ev.Head
	if ev.Cosigned {
		st.cosigned[ev.Head.Size] = true
		if !st.hasFrontier || ev.Head.Size > st.frontier {
			st.frontier = ev.Head.Size
			st.hasFrontier = true
		}
	}
}

// applyCosigEvent restores a cosignature over the recorded head.
func applyCosigEvent(st *sourceState, ev *cosigEvent) {
	rec, ok := st.heads[ev.Head.Size]
	if !ok || rec.Head != ev.Head.Head {
		return
	}
	if st.cosigs[ev.Head.Size] == nil {
		st.cosigs[ev.Head.Size] = make(map[string]Cosignature)
	}
	st.cosigs[ev.Head.Size][hex.EncodeToString(ev.Cosig.Witness)] = ev.Cosig
}

// journalEvent appends one event (no fsync yet; syncJournalLocked
// groups a whole ingest frame into one). Failures are sticky and
// surfaced by Close — the in-memory witness stays correct either way,
// it just recovers less after a crash. After a failure NOTHING more is
// appended: a partial frame may sit at the tail, and any valid frame
// written after it would be silently discarded by the next replay's
// torn-tail truncation. Caller holds w.mu.
func (w *Witness) journalEvent(kind byte, v any) {
	if w.journal == nil || w.replaying || w.journalErr != nil {
		return
	}
	payload, err := json.Marshal(v)
	if err == nil {
		err = w.journal.Append(kind, payload)
	}
	if err != nil && w.journalErr == nil {
		w.journalErr = fmt.Errorf("gossip: journaling witness event: %w", err)
		w.flight.Load().Record("gossip", "journal_failed", err.Error(), 0, obsv.TraceContext{})
	}
}

// syncJournalLocked makes everything journaled so far durable. Caller
// holds w.mu.
func (w *Witness) syncJournalLocked() {
	if w.journal == nil {
		return
	}
	if err := w.journal.Sync(); err != nil && w.journalErr == nil {
		w.journalErr = fmt.Errorf("gossip: syncing witness journal: %w", err)
	}
}

// Close flushes and closes the journal (no-op for in-memory witnesses)
// and reports any persistence error swallowed along the way.
func (w *Witness) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.journal == nil {
		return w.journalErr
	}
	err := w.journal.Close()
	w.journal = nil
	if w.journalErr != nil {
		return w.journalErr
	}
	return err
}
