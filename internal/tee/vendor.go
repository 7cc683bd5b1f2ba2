// Package tee simulates heterogeneous trusted execution environments
// (TEEs): the paper's first building block (§3.1).
//
// The simulation is cryptographic, not physical. Each simulated hardware
// vendor holds an ed25519 root key; provisioning an enclave generates a
// per-enclave attestation key endorsed by the vendor root, and the enclave
// can then produce quotes: signed statements binding (vendor, platform,
// measurement, report data). Verifiers hold only the vendor root public
// keys. This exercises exactly the attestation interface the paper's audit
// protocol consumes; what a software simulation cannot provide is the
// physical isolation itself (recorded in DESIGN.md).
//
// Heterogeneity (§3.2): the library ships three simulated vendors so a
// deployment can place every trust domain on a different "hardware" root,
// mirroring the paper's defense against a single TEE exploit compromising
// all domains.
package tee

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sync"
)

// VendorID identifies a simulated secure-hardware vendor.
type VendorID string

// The simulated vendor ecosystem. Names deliberately do not claim to be
// the real products; they play the architectural role of SGX/Nitro/Keystone.
const (
	VendorSimSGX      VendorID = "sim-sgx"
	VendorSimNitro    VendorID = "sim-nitro"
	VendorSimKeystone VendorID = "sim-keystone"
)

// AllVendorIDs lists the built-in simulated vendors.
func AllVendorIDs() []VendorID {
	return []VendorID{VendorSimSGX, VendorSimNitro, VendorSimKeystone}
}

// Vendor is a simulated secure-hardware manufacturer: it owns a root
// signing key and endorses per-enclave attestation keys.
type Vendor struct {
	id   VendorID
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey

	mu          sync.Mutex
	provisioned int
}

// NewVendor creates a vendor with a fresh root key.
func NewVendor(id VendorID) (*Vendor, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tee: generating vendor root for %s: %w", id, err)
	}
	return &Vendor{id: id, priv: priv, pub: pub}, nil
}

// RootKey returns the vendor's root public key, which verifiers pin.
func (v *Vendor) RootKey() ed25519.PublicKey {
	return append(ed25519.PublicKey{}, v.pub...)
}

// endorse signs an enclave's attestation public key together with its
// platform identity, producing the "platform certificate" carried in
// quotes.
func (v *Vendor) endorse(platformID string, attPub ed25519.PublicKey) []byte {
	return ed25519.Sign(v.priv, endorsementMessage(v.id, platformID, attPub))
}

func endorsementMessage(vendor VendorID, platformID string, attPub ed25519.PublicKey) []byte {
	msg := make([]byte, 0, 64)
	msg = append(msg, []byte("tee-endorse-v1|")...)
	msg = append(msg, []byte(vendor)...)
	msg = append(msg, '|')
	msg = append(msg, []byte(platformID)...)
	msg = append(msg, '|')
	msg = append(msg, attPub...)
	return msg
}

// RootSet maps vendor IDs to pinned root public keys; it is the verifier's
// entire trust anchor for attestation.
type RootSet map[VendorID]ed25519.PublicKey

// NewSimulatedEcosystem creates one vendor for each built-in VendorID and
// returns the vendors plus the corresponding RootSet for verifiers.
func NewSimulatedEcosystem() (map[VendorID]*Vendor, RootSet, error) {
	vendors := make(map[VendorID]*Vendor)
	roots := make(RootSet)
	for _, id := range AllVendorIDs() {
		v, err := NewVendor(id)
		if err != nil {
			return nil, nil, err
		}
		vendors[id] = v
		roots[id] = v.RootKey()
	}
	return vendors, roots, nil
}
