package tee

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// Measurement is the code identity of an enclave: in real TEEs, a hash of
// the initial memory contents; here, a SHA-256 over whatever the caller
// binds in (the framework binary plus the developer public key, per §4.1).
type Measurement = [sha256.Size]byte

// MeasureCode computes the measurement of a code blob plus provisioning
// data (e.g. the developer's update-verification public key).
func MeasureCode(code []byte, provisioning ...[]byte) Measurement {
	h := sha256.New()
	h.Write([]byte("tee-measure-v1"))
	writeLP(h, code)
	for _, p := range provisioning {
		writeLP(h, p)
	}
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}

func writeLP(h interface{ Write([]byte) (int, error) }, b []byte) {
	var lenBuf [4]byte
	lenBuf[0] = byte(len(b) >> 24)
	lenBuf[1] = byte(len(b) >> 16)
	lenBuf[2] = byte(len(b) >> 8)
	lenBuf[3] = byte(len(b))
	h.Write(lenBuf[:])
	h.Write(b)
}

// Enclave is a provisioned simulated TEE instance. It holds an attestation
// key endorsed by its vendor and a monotonic counter.
// Enclave methods are safe for concurrent use.
type Enclave struct {
	vendor      VendorID
	platformID  string
	measurement Measurement

	attPriv     ed25519.PrivateKey
	attPub      ed25519.PublicKey
	endorsement []byte

	mu      sync.Mutex
	counter uint64
}

// Provision creates an enclave on the given vendor's hardware with the
// given measurement. platformID models the physical machine identity.
func (v *Vendor) Provision(platformID string, measurement Measurement) (*Enclave, error) {
	attPub, attPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tee: generating attestation key: %w", err)
	}
	v.mu.Lock()
	v.provisioned++
	v.mu.Unlock()
	return &Enclave{
		vendor:      v.id,
		platformID:  platformID,
		measurement: measurement,
		attPriv:     attPriv,
		attPub:      attPub,
		endorsement: v.endorse(platformID, attPub),
	}, nil
}

// Vendor returns the enclave's vendor ID.
func (e *Enclave) Vendor() VendorID { return e.vendor }

// PlatformID returns the simulated machine identity.
func (e *Enclave) PlatformID() string { return e.platformID }

// Measurement returns the enclave's code identity.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Quote is a simulated remote-attestation quote: the enclave's statement
// that code with Measurement is running on Vendor hardware, binding 64
// bytes of caller-chosen ReportData (typically a nonce plus a log head).
type Quote struct {
	Vendor      VendorID
	PlatformID  string
	Measurement Measurement
	ReportData  [64]byte
	AttKey      []byte // ed25519 public attestation key
	Endorsement []byte // vendor root signature over (vendor, platform, attKey)
	Signature   []byte // attestation key signature over the quote body
}

func quoteMessage(q *Quote) []byte {
	msg := make([]byte, 0, 256)
	msg = append(msg, []byte("tee-quote-v1|")...)
	msg = append(msg, []byte(q.Vendor)...)
	msg = append(msg, '|')
	msg = append(msg, []byte(q.PlatformID)...)
	msg = append(msg, '|')
	msg = append(msg, q.Measurement[:]...)
	msg = append(msg, q.ReportData[:]...)
	return msg
}

// GenerateQuote produces an attestation quote over reportData.
func (e *Enclave) GenerateQuote(reportData [64]byte) *Quote {
	q := &Quote{
		Vendor:      e.vendor,
		PlatformID:  e.platformID,
		Measurement: e.measurement,
		ReportData:  reportData,
		AttKey:      append([]byte{}, e.attPub...),
		Endorsement: append([]byte{}, e.endorsement...),
	}
	q.Signature = ed25519.Sign(e.attPriv, quoteMessage(q))
	return q
}

// endorsementMemoSize bounds the endorsement memo (entries < 200 bytes).
const endorsementMemoSize = 64

// endorsements is the process-wide memo of endorsement checks VerifyQuote
// passed: an enclave's endorsement never changes, while its quote
// signature covers fresh report data, so only the latter is per call.
var endorsements = endorsementMemo{seen: make(map[string]struct{}, endorsementMemoSize)}

// endorsementMemo is keyed by a check's exact input, vendor root ‖
// endorsement ‖ endorsed message (vendor, platform, attestation key); root
// and endorsement have fixed lengths. Only successes are stored; when
// full, an arbitrary entry makes room.
type endorsementMemo struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

// verify is ed25519.Verify(root, msg, sig) through the memo.
func (m *endorsementMemo) verify(root ed25519.PublicKey, msg, sig []byte) bool {
	key := string(root) + string(sig) + string(msg)
	m.mu.Lock()
	_, ok := m.seen[key]
	m.mu.Unlock()
	if ok {
		return true
	}
	if !ed25519.Verify(root, msg, sig) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.seen) >= endorsementMemoSize {
		for k := range m.seen {
			delete(m.seen, k)
			break
		}
	}
	m.seen[key] = struct{}{}
	return true
}

// VerifyQuote checks a quote against pinned vendor roots: the endorsement
// chain (vendor root -> attestation key) and the quote signature. It
// returns the error describing the first check that fails.
func VerifyQuote(roots RootSet, q *Quote) error {
	if q == nil {
		return errors.New("tee: nil quote")
	}
	root, ok := roots[q.Vendor]
	if !ok {
		return fmt.Errorf("tee: unknown vendor %q", q.Vendor)
	}
	if len(root) != ed25519.PublicKeySize {
		return fmt.Errorf("tee: malformed root key for vendor %q", q.Vendor)
	}
	if len(q.AttKey) != ed25519.PublicKeySize {
		return errors.New("tee: malformed attestation key")
	}
	if len(q.Endorsement) != ed25519.SignatureSize {
		return errors.New("tee: malformed endorsement")
	}
	if !endorsements.verify(root, endorsementMessage(q.Vendor, q.PlatformID, q.AttKey), q.Endorsement) {
		return errors.New("tee: endorsement does not verify under vendor root")
	}
	if len(q.Signature) != ed25519.SignatureSize {
		return errors.New("tee: malformed quote signature")
	}
	if !ed25519.Verify(ed25519.PublicKey(q.AttKey), quoteMessage(q), q.Signature) {
		return errors.New("tee: quote signature invalid")
	}
	return nil
}

// IncrementCounter advances and returns the enclave's monotonic counter,
// used by the framework to order log heads across restarts.
func (e *Enclave) IncrementCounter() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.counter++
	return e.counter
}

// Counter returns the current counter value.
func (e *Enclave) Counter() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counter
}
