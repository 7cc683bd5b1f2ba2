package blsapp

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/deployfile"
	"repro/internal/ff"
	"repro/internal/transport"
)

// Refresh ceremony wire format. The coordinator (the dealer of the
// current epoch) sends every domain one refresh frame; the domain
// derives its next-epoch share inside the sandbox, verifies it against
// the frame's rotated Feldman commitment, durably installs it, and
// acknowledges with the new epoch. The ceremony is complete only when
// every domain has acknowledged; re-driving the same ceremony package
// is idempotent, which is what makes a crashed coordinator recoverable.

// RefreshFrame is the per-domain payload of a refresh ceremony.
type RefreshFrame struct {
	NewEpoch   uint64
	CeremonyID [16]byte
	Index      uint32
	Delta      ff.Fr
	// Commitment is the rotated Feldman commitment for NewEpoch; its
	// constant term must equal the previous epoch's (the group key never
	// moves across a refresh).
	Commitment []bls12381.G2Affine
	// DevSig is the developer's ed25519 signature over the frame body
	// (everything above, in wire encoding). The domain verifies it
	// against its sealed developer key BEFORE Feldman-checking, so only
	// the update-key holder — not anyone who can reach the RPC port —
	// can drive a share rotation.
	DevSig [ed25519.SignatureSize]byte
}

// maxRefreshCommitment bounds the commitment vector a frame may carry;
// it is a decode-time sanity cap well above any plausible threshold.
const maxRefreshCommitment = 255

// refreshFrameFixedLen is the frame length before the commitment vector.
const refreshFrameFixedLen = 8 + 16 + 4 + 32 + 2

// EncodeBody serializes the signed portion of the frame: everything
// except the developer signature. This is the exact byte string DevSig
// covers.
func (f *RefreshFrame) EncodeBody() []byte {
	out := make([]byte, 0, refreshFrameFixedLen+len(f.Commitment)*bls12381.G2CompressedSize)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], f.NewEpoch)
	out = append(out, u64[:]...)
	out = append(out, f.CeremonyID[:]...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], f.Index)
	out = append(out, u32[:]...)
	db := f.Delta.Bytes()
	out = append(out, db[:]...)
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(f.Commitment)))
	out = append(out, u16[:]...)
	for i := range f.Commitment {
		cb := f.Commitment[i].Bytes()
		out = append(out, cb[:]...)
	}
	return out
}

// Encode serializes the frame: the signed body followed by the 64-byte
// developer signature.
func (f *RefreshFrame) Encode() []byte {
	return append(f.EncodeBody(), f.DevSig[:]...)
}

// DecodeRefreshFrame parses and validates a refresh frame: exact
// length, a canonical scalar, on-curve in-subgroup commitment points,
// and a trailing 64-byte developer signature (whose validity the share
// state checks against its sealed key). It never panics on adversarial
// input (FuzzRefreshFrame).
func DecodeRefreshFrame(b []byte) (*RefreshFrame, error) {
	if len(b) < refreshFrameFixedLen+ed25519.SignatureSize {
		return nil, fmt.Errorf("blsapp: refresh frame of %d bytes, want at least %d", len(b), refreshFrameFixedLen+ed25519.SignatureSize)
	}
	var f RefreshFrame
	f.NewEpoch = binary.BigEndian.Uint64(b[:8])
	copy(f.CeremonyID[:], b[8:24])
	f.Index = binary.BigEndian.Uint32(b[24:28])
	if err := f.Delta.SetBytes(b[28:60]); err != nil {
		return nil, fmt.Errorf("blsapp: refresh frame delta: %w", err)
	}
	n := int(binary.BigEndian.Uint16(b[60:62]))
	if n > maxRefreshCommitment {
		return nil, fmt.Errorf("blsapp: refresh frame commitment of %d terms exceeds cap", n)
	}
	if len(b) != refreshFrameFixedLen+n*bls12381.G2CompressedSize+ed25519.SignatureSize {
		return nil, fmt.Errorf("blsapp: refresh frame of %d bytes, want %d for %d commitment terms",
			len(b), refreshFrameFixedLen+n*bls12381.G2CompressedSize+ed25519.SignatureSize, n)
	}
	f.Commitment = make([]bls12381.G2Affine, n)
	for i := 0; i < n; i++ {
		off := refreshFrameFixedLen + i*bls12381.G2CompressedSize
		if err := f.Commitment[i].SetBytes(b[off : off+bls12381.G2CompressedSize]); err != nil {
			return nil, fmt.Errorf("blsapp: refresh frame commitment term %d: %w", i, err)
		}
	}
	copy(f.DevSig[:], b[len(b)-ed25519.SignatureSize:])
	return &f, nil
}

// RefreshSigner authenticates refresh frames; *framework.Developer
// implements it. Ed25519 is deterministic, so re-signing the same
// ceremony package on a crash re-drive reproduces identical frames.
type RefreshSigner interface {
	SignRefresh(frame []byte) []byte
}

// RefreshRequestFor builds the application request carrying domain i's
// frame of the ceremony (domain i holds share index i+1), signed by
// the developer key the domains sealed.
func RefreshRequestFor(ref *bls.Refresh, domainIndex int, signer RefreshSigner) ([]byte, error) {
	if domainIndex < 0 || domainIndex >= len(ref.Deltas) {
		return nil, fmt.Errorf("blsapp: domain index %d out of range for %d-share ceremony", domainIndex, len(ref.Deltas))
	}
	if signer == nil {
		return nil, errors.New("blsapp: refresh frames must be signed by the developer key (nil signer)")
	}
	d := ref.Deltas[domainIndex]
	frame := RefreshFrame{
		NewEpoch:   ref.NewEpoch,
		CeremonyID: ref.CeremonyID,
		Index:      d.Index,
		Delta:      d.Delta,
		Commitment: ref.NewKey.Commitment,
	}
	sig := signer.SignRefresh(frame.EncodeBody())
	if len(sig) != ed25519.SignatureSize {
		return nil, fmt.Errorf("blsapp: refresh signer produced a %d-byte signature, want %d", len(sig), ed25519.SignatureSize)
	}
	copy(frame.DevSig[:], sig)
	body := frame.Encode()
	out := make([]byte, 0, 1+len(body))
	out = append(out, opRefresh)
	return append(out, body...), nil
}

// DecodeRefreshAck parses a refresh acknowledgement, returning the
// epoch the domain reports being at.
func DecodeRefreshAck(resp []byte) (uint64, error) {
	if len(resp) == 0 {
		return 0, errors.New("blsapp: domain rejected the refresh request")
	}
	if len(resp) != markerRespLen || resp[0] != respRefreshAck {
		return 0, fmt.Errorf("blsapp: bad refresh acknowledgement (%d bytes)", len(resp))
	}
	return binary.BigEndian.Uint64(resp[1:]), nil
}

// ceremonyAttempts bounds how often one RunRefreshCeremony call sends a
// domain its frame when the domain answers with an error.
const ceremonyAttempts = 3

// RunRefreshCeremony drives one proactive refresh over the deployment:
// every domain receives its frame and must acknowledge the new epoch —
// unlike a threshold signature, which any t domains can produce, a
// refresh needs all n. A domain that answers with an error is sent its
// frame up to ceremonyAttempts times; one whose link breaks is not sent
// it again. On error the ceremony is incomplete — some domains may
// already have moved — and the caller must re-drive it with the SAME
// *bls.Refresh (domains acknowledge replays idempotently); generating a
// fresh package for the same epoch would strand the domains that
// already applied this one. diag receives the phase events and brackets
// the ceremony with its watchdog.
func RunRefreshCeremony(inv Invoker, ref *bls.Refresh, signer RefreshSigner, diag CeremonyDiagnostics) (err error) {
	start := time.Now()
	ceremonyObs.ceremonies.Inc()
	diag.Watchdog.Arm()
	defer func() { diag.done(start, err) }()
	n := inv.NumDomains()
	if n != len(ref.Deltas) {
		return fmt.Errorf("blsapp: ceremony for %d shares driven against %d domains", len(ref.Deltas), n)
	}
	ceremonyObs.phase.Set(ceremonyFrames)
	diag.event("ceremony_phase", "frames", ref.NewEpoch)
	reqs := make([][]byte, n)
	for i := 0; i < n; i++ {
		r, err := RefreshRequestFor(ref, i, signer)
		if err != nil {
			return err
		}
		reqs[i] = r
	}

	ceremonyObs.phase.Set(ceremonyInvoke)
	diag.event("ceremony_phase", "invoke", ref.NewEpoch)
	resps := make([][]byte, n)
	for i := 0; i < n; i++ {
		var err error
		for a := 0; a < ceremonyAttempts; a++ {
			resps[i], err = inv.Invoke(i, reqs[i])
			// Only a failure the domain answered is retried here. A broken
			// link is not: the frame may have been applied, and re-sending
			// is the durable re-drive's job, not this call's.
			var answered *transport.ErrRemote
			if err == nil || !errors.As(err, &answered) {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("blsapp: refresh ceremony incomplete at domain %d (re-drive with the same package): %w", i, err)
		}
	}
	ceremonyObs.phase.Set(ceremonyAcks)
	diag.event("ceremony_phase", "acks", ref.NewEpoch)
	for i, resp := range resps {
		epoch, err := DecodeRefreshAck(resp)
		if err != nil {
			return fmt.Errorf("blsapp: refresh ceremony: domain %d: %w", i, err)
		}
		if epoch != ref.NewEpoch {
			return fmt.Errorf("blsapp: refresh ceremony: domain %d acknowledged epoch %d, want %d", i, epoch, ref.NewEpoch)
		}
	}
	return nil
}

// RefreshCoordinator holds the ceremony crash rule (DESIGN.md §7) that
// dtclient and trustdomaind both coordinate by: a package is staged
// before any domain sees it, re-driven — never replaced — until it
// commits, and removed only after the commit.
type RefreshCoordinator struct {
	Inv     Invoker
	Signer  RefreshSigner
	Diag    CeremonyDiagnostics
	Pending string                        // the file the package is staged in
	Commit  func(*bls.ThresholdKey) error // records the new key after the probe
	Resumed func(*bls.Refresh)            // told before a staged package is re-driven
}

// Drive takes the staged package, or else one dealt from deal, through
// the ceremony, a probe signature at the new epoch and Commit. floor is
// the epoch every domain has reached and deal the public key at it (nil:
// deal nothing). A staged package at or below floor was applied and is
// removed; one beyond floor+1 is refused and kept.
func (c *RefreshCoordinator) Drive(floor uint64, deal *bls.ThresholdKey) error {
	ref, err := deployfile.ReadRefresh(c.Pending)
	if err != nil {
		return err
	}
	switch {
	case ref != nil && ref.NewEpoch <= floor:
		// The crash landed between the commit and the removal.
		if err := deployfile.RemoveRefresh(c.Pending); err != nil {
			return err
		}
		ref = nil
	case ref != nil && ref.NewEpoch != floor+1:
		return fmt.Errorf("blsapp: staged ceremony targets epoch %d but the domains are at epoch %d", ref.NewEpoch, floor)
	case ref != nil:
		c.Resumed(ref)
	}
	if ref == nil {
		if deal == nil {
			return nil
		}
		if deal.Epoch != floor {
			return fmt.Errorf("blsapp: refresh dealt from epoch %d but the domains are at epoch %d", deal.Epoch, floor)
		}
		if ref, err = bls.NewRefresh(deal); err != nil {
			return err
		}
		if err := deployfile.WriteRefresh(c.Pending, ref); err != nil {
			return err
		}
	}
	if err := RunRefreshCeremony(c.Inv, ref, c.Signer, c.Diag); err != nil {
		return err
	}
	probe := []byte("refresh probe")
	sig, err := ThresholdSign(c.Inv, ref.NewKey, probe)
	if err != nil {
		return fmt.Errorf("blsapp: post-refresh probe signature: %w", err)
	}
	if !bls.Verify(&ref.NewKey.GroupKey, probe, sig) {
		return errors.New("blsapp: post-refresh probe signature does not verify under the (unchanged) group key")
	}
	if err := c.Commit(ref.NewKey); err != nil {
		return err
	}
	return deployfile.RemoveRefresh(c.Pending)
}
