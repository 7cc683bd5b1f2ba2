// Package hwnext simulates the secure-hardware design the paper proposes
// in §4.2 ("Deployment tomorrow / Secure hardware design"): a TEE that
//
//   - attests to the application-independent framework,
//   - stores the history of executed code in hardware, and
//   - isolates the application binary from the framework directly, so no
//     software sandbox is needed.
//
// The measurable consequence the paper predicts is that the sandbox row
// of Table 3 collapses toward the baseline: updates run "much more
// efficiently" because the hardware, not a software VM, provides the
// isolation. HardwareFramework reuses the same update-verification and
// append-only-log logic as the software framework but executes the
// application natively behind a (simulated) hardware isolation boundary;
// BenchmarkTable3NextGenTEE in the root harness extends Table 3 with the
// resulting row.
package hwnext

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"repro/internal/aolog"
	"repro/internal/framework"
	"repro/internal/tee"
)

// NativeApp is an application binary in the next-gen model: the hardware
// isolates it from the framework, so it is registered as a native handler
// rather than bytecode. Bytes is the distributed binary (what gets
// hashed and logged); Handler is its behavior.
type NativeApp struct {
	Bytes   []byte
	Handler func(request []byte) ([]byte, error)
}

// Digest returns the code digest of the app binary.
func (a *NativeApp) Digest() [sha256.Size]byte { return sha256.Sum256(a.Bytes) }

// HardwareFramework is the §4.2 framework variant: same developer-signed
// update discipline and per-TEE hash chain, but hardware-backed app
// isolation (no software sandbox on the invoke path). Safe for
// concurrent use.
type HardwareFramework struct {
	devKey  ed25519.PublicKey
	enclave *tee.Enclave

	mu      sync.Mutex
	version uint64
	digest  [sha256.Size]byte
	app     *NativeApp
	log     aolog.HashChain
	// registry maps a binary digest to its native handler, modeling the
	// hardware loading the matching isolated binary.
	registry map[[sha256.Size]byte]func([]byte) ([]byte, error)
}

// MeasureNextGen is the enclave measurement for the next-gen framework
// (distinct from the software framework's, so deployments cannot be
// confused for one another).
func MeasureNextGen(developerKey ed25519.PublicKey) tee.Measurement {
	return tee.MeasureCode([]byte("repro-hwnext-framework-v1"), developerKey)
}

// New creates a hardware framework inside the given enclave.
func New(devKey ed25519.PublicKey, enclave *tee.Enclave) (*HardwareFramework, error) {
	if len(devKey) != ed25519.PublicKeySize {
		return nil, errors.New("hwnext: invalid developer key")
	}
	if enclave == nil {
		return nil, errors.New("hwnext: next-gen framework requires the (simulated) hardware")
	}
	if enclave.Measurement() != MeasureNextGen(devKey) {
		return nil, errors.New("hwnext: enclave measurement mismatch")
	}
	return &HardwareFramework{
		devKey:   devKey,
		enclave:  enclave,
		registry: make(map[[sha256.Size]byte]func([]byte) ([]byte, error)),
	}, nil
}

// RegisterBinary makes a native app loadable: in real next-gen hardware
// this is the hardware accepting a binary image; here the handler stands
// in for the isolated execution of those bytes.
func (h *HardwareFramework) RegisterBinary(app *NativeApp) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.registry[app.Digest()] = app.Handler
}

// Install verifies a developer-signed update, appends its digest to the
// hardware history, and switches execution to the matching binary.
// Signature format is shared with the software framework, so the same
// Developer releases serve both deployment styles.
func (h *HardwareFramework) Install(version uint64, binary []byte, devSig []byte) error {
	if !framework.VerifyUpdate(h.devKey, version, binary, devSig) {
		return errors.New("hwnext: update signature does not verify under developer key")
	}
	digest := sha256.Sum256(binary)
	h.mu.Lock()
	defer h.mu.Unlock()
	if version <= h.version {
		return fmt.Errorf("hwnext: version %d not newer than %d (rollback rejected)", version, h.version)
	}
	handler, ok := h.registry[digest]
	if !ok {
		return errors.New("hwnext: no registered binary with this digest")
	}
	rec := &framework.UpdateRecord{
		Version: version,
		Digest:  hex.EncodeToString(digest[:]),
		DevSig:  devSig,
	}
	h.log.Append(framework.EncodeRecord(rec))
	h.enclave.IncrementCounter()
	h.version = version
	h.digest = digest
	h.app = &NativeApp{Bytes: binary, Handler: handler}
	return nil
}

// Invoke runs one request through the hardware-isolated application. No
// VM, no copy-in/copy-out: the hardware boundary replaces the software
// sandbox, which is exactly the efficiency §4.2 predicts.
func (h *HardwareFramework) Invoke(request []byte) ([]byte, error) {
	h.mu.Lock()
	app := h.app
	h.mu.Unlock()
	if app == nil {
		return nil, errors.New("hwnext: no application installed")
	}
	return app.Handler(request)
}

// Status reports the framework state in the same shape as the software
// framework so the audit machinery can consume it.
func (h *HardwareFramework) Status() framework.Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	head := h.log.Head()
	return framework.Status{
		Version:       h.version,
		CurrentDigest: hex.EncodeToString(h.digest[:]),
		LogLen:        h.log.Len(),
		LogHead:       head[:],
		Counter:       h.enclave.Counter(),
	}
}

// AttestedStatus binds the status to a client nonce via a hardware quote.
func (h *HardwareFramework) AttestedStatus(nonce []byte) framework.AttestedStatus {
	st := h.Status()
	rd := framework.StatusReportData(nonce, &st)
	return framework.AttestedStatus{Status: st, Quote: h.enclave.GenerateQuote(rd)}
}

// History returns the logged update records.
func (h *HardwareFramework) History() [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.log.Entries()
}
