package framework

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
)

// Developer models the application developer: the holder of the update
// signing key whose public half is sealed into every trust domain's TEE.
type Developer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewDeveloper generates a fresh developer identity.
func NewDeveloper() (*Developer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("framework: developer keygen: %w", err)
	}
	return &Developer{priv: priv, pub: pub}, nil
}

// NewDeveloperFromSeed reconstructs a developer identity from its
// 32-byte ed25519 seed — how an out-of-process refresh coordinator
// (dtclient) loads the signing half the deployment exported for it.
func NewDeveloperFromSeed(seed []byte) (*Developer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("framework: developer seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Developer{priv: priv, pub: priv.Public().(ed25519.PublicKey)}, nil
}

// Seed returns the developer key's 32-byte ed25519 seed. Handle like
// the private key it is.
func (d *Developer) Seed() []byte {
	return append([]byte{}, d.priv.Seed()...)
}

// refreshPrefix domain-separates refresh-frame signatures from module
// update signatures under the same developer key.
var refreshPrefix = []byte("tee-framework-refresh-v1")

// refreshMessage is the canonical byte string a refresh-frame
// signature covers.
func refreshMessage(frame []byte) []byte {
	out := make([]byte, 0, len(refreshPrefix)+len(frame))
	out = append(out, refreshPrefix...)
	return append(out, frame...)
}

// SignRefresh signs the canonical encoding of a share-refresh frame.
// Trust domains verify this signature inside the sandbox boundary
// before Feldman-checking the frame, so only the holder of the update
// signing key — not anyone who can reach the RPC port — can rotate the
// deployment's shares.
func (d *Developer) SignRefresh(frame []byte) []byte {
	return ed25519.Sign(d.priv, refreshMessage(frame))
}

// VerifyRefresh checks a refresh-frame signature against the developer
// public key the domain sealed.
func VerifyRefresh(pub ed25519.PublicKey, frame, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, refreshMessage(frame), sig)
}

// VerifyUpdate checks a developer signature over (version, moduleBytes):
// the one update-signing format every framework variant accepts.
func VerifyUpdate(pub ed25519.PublicKey, version uint64, moduleBytes, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, updateMessage(version, moduleBytes), sig)
}

// PublicKey returns the update-verification key that trust domains seal.
func (d *Developer) PublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey{}, d.pub...)
}

// SignUpdate signs (version, moduleBytes) for distribution to the trust
// domains.
func (d *Developer) SignUpdate(version uint64, moduleBytes []byte) []byte {
	return ed25519.Sign(d.priv, updateMessage(version, moduleBytes))
}

// SignedUpdate bundles everything a trust domain needs to apply an update.
type SignedUpdate struct {
	Version     uint64 `json:"version"`
	ModuleBytes []byte `json:"module_bytes"`
	DevSig      []byte `json:"dev_sig"`
}

// PrepareUpdate signs a module for release.
func (d *Developer) PrepareUpdate(version uint64, moduleBytes []byte) SignedUpdate {
	return SignedUpdate{
		Version:     version,
		ModuleBytes: append([]byte{}, moduleBytes...),
		DevSig:      d.SignUpdate(version, moduleBytes),
	}
}
