package blsapp

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/ff"
	"repro/internal/framework"
	"repro/internal/obsv"
	"repro/internal/store"
)

// ShareState is the application state a trust domain keeps behind the
// sandbox boundary: its threshold key share, tagged with the refresh
// epoch it belongs to. The state is mutable — a refresh ceremony moves
// it to the next epoch — and optionally durable: bound to a file, every
// epoch transition is committed with an atomic write-then-rename before
// the in-memory share changes, so a domain killed mid-ceremony restarts
// into either the old epoch or the new one, never a torn share.
type ShareState struct {
	mu sync.Mutex
	ks bls.KeyShare

	// Public dealing context: the per-epoch Feldman commitment (and the
	// deployment shape) against which refresh frames are verified. When
	// absent the state is sign-only and refuses refreshes.
	t, n   int
	commit []bls12381.G2Affine

	// devKey is the developer (update) public key the domain sealed;
	// refresh frames must carry a valid developer signature over their
	// body before any cryptographic validation happens. Refresh-capable
	// states without a bound key refuse all refreshes.
	devKey ed25519.PublicKey

	// lastCID identifies the ceremony that produced the current epoch,
	// so a coordinator retrying a ceremony the domain already applied is
	// acknowledged idempotently instead of corrupting the share.
	lastCID [16]byte

	path string // durable state file; empty = in-memory only

	obs    shareObs // internal instruments; see RegisterMetrics
	flight *obsv.FlightRecorder
}

// SetFlightRecorder makes every committed epoch transition a
// share_refresh flight event on fr. Call it before the state is served.
func (st *ShareState) SetFlightRecorder(fr *obsv.FlightRecorder) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.flight = fr
}

// NewShareState wraps a key share as in-memory application state with no
// public dealing context: it can sign, but rejects refresh ceremonies.
func NewShareState(ks bls.KeyShare) *ShareState {
	return &ShareState{ks: ks}
}

// NewShareStateWithKey wraps a key share together with the deployment's
// public threshold key (which must carry the Feldman commitment) and
// the sealed developer key, which together let the domain authenticate
// and verify refresh frames before applying them.
func NewShareStateWithKey(ks bls.KeyShare, tk *bls.ThresholdKey, devKey ed25519.PublicKey) *ShareState {
	st := &ShareState{ks: ks, t: tk.T, n: tk.N}
	st.commit = append([]bls12381.G2Affine{}, tk.Commitment...)
	st.devKey = append(ed25519.PublicKey{}, devKey...)
	return st
}

// shareFileJSON is the durable single-file encoding of a ShareState.
type shareFileJSON struct {
	Index      uint32 `json:"index"`
	Epoch      uint64 `json:"epoch"`
	Share      string `json:"share"`       // hex 32-byte scalar
	CeremonyID string `json:"ceremony_id"` // hex 16-byte id of the ceremony that produced Epoch
}

// OpenShareState opens (or creates) a durable share state at path. If
// the file exists its contents win — that is how a restarted domain
// resumes at the epoch it had durably reached — and initial (which may
// be nil on restart) is only consulted for a consistency check on the
// share index. A missing file is created from initial. tk provides the
// public dealing context and may be nil for sign-only states; devKey is
// the sealed developer key refresh frames must be signed by (nil makes
// the state refuse refreshes). Files are written 0600: the share is the
// domain's long-term secret.
func OpenShareState(path string, initial *bls.KeyShare, tk *bls.ThresholdKey, devKey ed25519.PublicKey) (*ShareState, error) {
	st := &ShareState{path: path}
	if tk != nil {
		st.t, st.n = tk.T, tk.N
		st.commit = append([]bls12381.G2Affine{}, tk.Commitment...)
	}
	st.devKey = append(ed25519.PublicKey{}, devKey...)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var f shareFileJSON
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("blsapp: share state %s is corrupt (refusing to serve): %w", path, err)
		}
		sb, err := hex.DecodeString(f.Share)
		if err != nil {
			return nil, fmt.Errorf("blsapp: share state %s: bad share encoding: %w", path, err)
		}
		var s ff.Fr
		if err := s.SetBytes(sb); err != nil {
			return nil, fmt.Errorf("blsapp: share state %s: bad share scalar: %w", path, err)
		}
		cid, err := hex.DecodeString(f.CeremonyID)
		if err != nil || len(cid) != len(st.lastCID) {
			return nil, fmt.Errorf("blsapp: share state %s: bad ceremony id", path)
		}
		copy(st.lastCID[:], cid)
		st.ks = bls.KeyShare{Index: f.Index, Epoch: f.Epoch, Share: s}
		if initial != nil && initial.Index != f.Index {
			return nil, fmt.Errorf("blsapp: share state %s holds index %d, deployment expects %d", path, f.Index, initial.Index)
		}
		return st, nil
	case errors.Is(err, os.ErrNotExist):
		if initial == nil {
			return nil, fmt.Errorf("blsapp: share state %s does not exist and no initial share was provided", path)
		}
		st.ks = *initial
		if err := st.persistLocked(); err != nil {
			return nil, err
		}
		return st, nil
	default:
		return nil, fmt.Errorf("blsapp: reading share state %s: %w", path, err)
	}
}

// persistLocked durably writes the current state; st.mu must be held
// (or the state not yet shared). A no-op for in-memory states.
func (st *ShareState) persistLocked() error {
	if st.path == "" {
		return nil
	}
	sb := st.ks.Share.Bytes()
	data, err := json.Marshal(shareFileJSON{
		Index:      st.ks.Index,
		Epoch:      st.ks.Epoch,
		Share:      hex.EncodeToString(sb[:]),
		CeremonyID: hex.EncodeToString(st.lastCID[:]),
	})
	if err != nil {
		return fmt.Errorf("blsapp: encoding share state: %w", err)
	}
	if err := store.WriteFileAtomic(st.path, data, 0o600); err != nil {
		return fmt.Errorf("blsapp: persisting share state: %w", err)
	}
	return nil
}

// Current returns a copy of the share at its current epoch.
func (st *ShareState) Current() bls.KeyShare {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ks
}

// Epoch returns the state's current refresh epoch.
func (st *ShareState) Epoch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ks.Epoch
}

// ApplyRefresh validates a refresh frame and, if it checks out, commits
// the next-epoch share: durably first (atomic file replace), then in
// memory, then the old share scalar is zeroized. A frame for the
// current epoch from the ceremony the state already applied is
// acknowledged as a no-op, which is what makes coordinator retries and
// crash re-drives safe. Every other mismatch is an error.
func (st *ShareState) ApplyRefresh(f *RefreshFrame) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.Index != st.ks.Index {
		st.obs.rejected.Inc()
		return fmt.Errorf("blsapp: refresh frame for share %d, this domain holds share %d", f.Index, st.ks.Index)
	}
	// Authentication first: before the frame's contents get anywhere
	// near the Feldman machinery, it must carry the developer's
	// signature over its body. Without this anyone who could reach the
	// RPC port could rotate shares (and a t-subset of rotated-by-the-
	// attacker domains races the honest epoch).
	if len(st.devKey) == 0 {
		st.obs.rejected.Inc()
		return errors.New("blsapp: refresh rejected: domain has no refresh authority key bound")
	}
	if !framework.VerifyRefresh(st.devKey, f.EncodeBody(), f.DevSig[:]) {
		st.obs.rejected.Inc()
		return errors.New("blsapp: refresh frame is not signed by the developer key (rejected)")
	}
	if f.NewEpoch == st.ks.Epoch && f.CeremonyID == st.lastCID {
		st.obs.replays.Inc()
		return nil // idempotent replay of the ceremony that got us here
	}
	if f.NewEpoch != st.ks.Epoch+1 {
		st.obs.staleRejected.Inc()
		return fmt.Errorf("blsapp: refresh to epoch %d rejected: domain is at epoch %d (ceremonies advance by exactly one)", f.NewEpoch, st.ks.Epoch)
	}
	if len(st.commit) == 0 {
		st.obs.rejected.Inc()
		return errors.New("blsapp: refresh rejected: domain has no public dealing context (sign-only share state)")
	}
	// Feldman validation inside the trust boundary: the frame's rotated
	// commitment must keep the group-key term — so no ceremony can move
	// the key the deployment's clients pinned — and the derived share
	// must lie on the committed polynomial.
	if len(f.Commitment) != st.t {
		st.obs.rejected.Inc()
		return fmt.Errorf("blsapp: refresh frame carries %d commitment terms, want %d", len(f.Commitment), st.t)
	}
	if !f.Commitment[0].Equal(&st.commit[0]) {
		st.obs.rejected.Inc()
		return errors.New("blsapp: refresh frame changes the group public key (rejected)")
	}
	next, err := st.ks.ApplyRefresh(f.NewEpoch, &bls.RefreshDelta{Index: f.Index, Delta: f.Delta})
	if err != nil {
		st.obs.rejected.Inc()
		return err
	}
	check := bls.ThresholdKey{N: st.n, T: st.t, Epoch: f.NewEpoch, Commitment: f.Commitment}
	if !check.VerifyShare(&next) {
		st.obs.rejected.Inc()
		return errors.New("blsapp: refreshed share does not verify against the ceremony commitment")
	}

	old := st.ks
	prevCID := st.lastCID
	st.ks = next
	st.lastCID = f.CeremonyID
	if err := st.persistLocked(); err != nil {
		// Durability is the commit point: if the file write failed the
		// transition did not happen.
		st.ks = old
		st.lastCID = prevCID
		return err
	}
	st.commit = append(st.commit[:0], f.Commitment...)
	old.Zeroize()
	st.obs.refreshes.Inc()
	st.flight.Record("blsapp", "share_refresh", "", f.NewEpoch, obsv.TraceContext{})
	return nil
}
