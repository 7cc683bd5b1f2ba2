// Package framework implements the paper's application-independent
// framework (§4.1): the component sealed into each trust domain's TEE at
// provisioning time. It
//
//   - accepts application code (sandbox modules) as input and executes it
//     inside the sandbox, so updates cannot tamper with the framework;
//   - only accepts updates signed by the developer key sealed alongside it;
//   - appends every code digest to a per-TEE append-only hash chain BEFORE
//     the new code runs, so a malicious update cannot erase its tracks;
//   - surfaces a pending-update notice so clients learn an update is about
//     to take place; and
//   - serves attested status: a TEE quote binding (framework measurement,
//     client nonce, log head, code digest).
//
// Application state deliberately lives on the host side of the sandbox
// boundary (host functions close over sealed state such as key shares);
// sandbox instances are stateless request handlers, which is how the
// framework supports code updates without state migration.
package framework

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/aolog"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

// Application ABI: the module must export a function named HandleFunc with
// two params (request offset, request length) and one result (response
// length). The framework writes the request at RequestOffset and reads the
// response from ResponseOffset.
const (
	HandleFunc     = "handle"
	RequestOffset  = 4096
	MaxRequestLen  = 64 * 1024
	ResponseOffset = RequestOffset + MaxRequestLen
	MaxResponseLen = 64 * 1024
	MinMemoryBytes = ResponseOffset + MaxResponseLen

	// DefaultGasLimit bounds one application invocation.
	DefaultGasLimit = 50_000_000
)

// FrameworkCodeID is the identity of this framework implementation; it is
// folded into the TEE measurement together with the developer key, exactly
// as §4.1 prescribes sealing "not just the framework, but also a public
// key".
const FrameworkCodeID = "repro-framework-v1"

// Measure computes the enclave measurement for a framework provisioned
// with the given developer update-verification key.
func Measure(developerKey ed25519.PublicKey) tee.Measurement {
	return tee.MeasureCode([]byte(FrameworkCodeID), developerKey)
}

// UpdateRecord is the payload appended to the append-only log for every
// code activation.
type UpdateRecord struct {
	Version uint64 `json:"version"`
	Digest  string `json:"digest"` // hex SHA-256 of the module encoding
	DevSig  []byte `json:"dev_sig"`
}

// EncodeRecord canonically encodes an update record for logging.
func EncodeRecord(r *UpdateRecord) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic("framework: update record must marshal: " + err.Error())
	}
	return b
}

// DecodeRecord parses a logged update record.
func DecodeRecord(b []byte) (*UpdateRecord, error) {
	var r UpdateRecord
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("framework: bad update record: %w", err)
	}
	return &r, nil
}

// updateMessage is the byte string the developer signs for an update.
func updateMessage(version uint64, moduleBytes []byte) []byte {
	h := sha256.New()
	h.Write([]byte("framework-update-v1"))
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], version)
	h.Write(v[:])
	h.Write(moduleBytes)
	return h.Sum(nil)
}

// PendingUpdate is the client-visible notice that an update is staged.
type PendingUpdate struct {
	Version uint64 `json:"version"`
	Digest  string `json:"digest"`
}

// Status is the framework's self-description served to clients.
//
// Counter is the TEE's monotonic counter, incremented at every code
// activation. Because the hardware counter never decreases, two attested
// statuses where the later counter shows a shorter log or lower version
// are an order-attributable rollback proof (zero for trust domain 0,
// which has no hardware counter).
type Status struct {
	Version       uint64         `json:"version"`
	CurrentDigest string         `json:"current_digest"`
	LogLen        int            `json:"log_len"`
	LogHead       []byte         `json:"log_head"`
	Counter       uint64         `json:"counter"`
	Pending       *PendingUpdate `json:"pending,omitempty"`
	Frozen        bool           `json:"frozen"`
}

// Framework is one trust domain's framework instance. Safe for concurrent
// use.
type Framework struct {
	devKey  ed25519.PublicKey
	enclave *tee.Enclave // nil for trust domain 0 (no secure hardware)
	hosts   map[string]*sandbox.HostFunc
	gas     uint64
	frozen  bool

	mu       sync.Mutex
	version  uint64
	digest   [sha256.Size]byte
	instance *sandbox.Instance
	log      aolog.HashChain
	pending  *stagedUpdate

	// invokeMu serializes application invocations: requests and responses
	// share the instance's linear memory, so at most one request may be in
	// flight per instance (the paper's prototype has the same property —
	// Node.js runs the Wasm app single-threaded). Held separately from mu
	// so status/audit reads never wait on a running application.
	invokeMu sync.Mutex
}

type stagedUpdate struct {
	version     uint64
	digest      [sha256.Size]byte
	moduleBytes []byte
	devSig      []byte
}

// Option configures a Framework.
type Option func(*Framework)

// WithFrozen disables updates entirely: §3.3's recommendation for highly
// sensitive applications whose developers disable their own update path.
func WithFrozen() Option {
	return func(f *Framework) { f.frozen = true }
}

// New creates a framework bound to a developer key, running inside the
// given enclave (nil for trust domain 0), exposing the given host
// functions to sandboxed application code.
func New(devKey ed25519.PublicKey, enclave *tee.Enclave, hosts map[string]*sandbox.HostFunc, opts ...Option) (*Framework, error) {
	if len(devKey) != ed25519.PublicKeySize {
		return nil, errors.New("framework: invalid developer key")
	}
	if enclave != nil && enclave.Measurement() != Measure(devKey) {
		return nil, errors.New("framework: enclave measurement does not match framework + developer key")
	}
	f := &Framework{
		devKey:  devKey,
		enclave: enclave,
		hosts:   hosts,
		gas:     DefaultGasLimit,
	}
	for _, o := range opts {
		o(f)
	}
	return f, nil
}

// validateAppModule checks the application ABI before instantiation.
func validateAppModule(m *sandbox.Module) error {
	if m.MemoryBytes < MinMemoryBytes {
		return fmt.Errorf("framework: application memory %d below ABI minimum %d", m.MemoryBytes, MinMemoryBytes)
	}
	idx, err := m.FunctionIndex(HandleFunc)
	if err != nil {
		return fmt.Errorf("framework: application missing %q export: %w", HandleFunc, err)
	}
	h := m.Functions[idx]
	if h.NumParams != 2 || h.NumResults != 1 {
		return fmt.Errorf("framework: %q must take (ptr, len) and return (respLen)", HandleFunc)
	}
	return nil
}

// StageUpdate verifies a signed update and records it as pending. Clients
// polling Status see the pending notice before the code runs (§4.1:
// "before the TEE starts running the new code, it alerts the client").
func (f *Framework) StageUpdate(version uint64, moduleBytes, devSig []byte) error {
	f.mu.Lock()
	installed := f.version > 0
	f.mu.Unlock()
	if f.frozen && installed {
		// Frozen deployments model §4.1's "deployment without updates":
		// the initial application is sealed at provisioning and can never
		// be replaced.
		return errors.New("framework: updates are disabled (frozen deployment)")
	}
	if !VerifyUpdate(f.devKey, version, moduleBytes, devSig) {
		return errors.New("framework: update signature does not verify under developer key")
	}
	m, err := sandbox.Decode(moduleBytes)
	if err != nil {
		return fmt.Errorf("framework: rejecting update: %w", err)
	}
	if err := validateAppModule(m); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if version <= f.version {
		return fmt.Errorf("framework: version %d not newer than current %d (rollback rejected)", version, f.version)
	}
	f.pending = &stagedUpdate{
		version:     version,
		digest:      m.Digest(),
		moduleBytes: append([]byte{}, moduleBytes...),
		devSig:      append([]byte{}, devSig...),
	}
	return nil
}

// ActivateUpdate appends the staged update to the append-only log and then
// swaps the running instance. The log entry precedes execution so even a
// malicious module's digest is permanently recorded.
func (f *Framework) ActivateUpdate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pending == nil {
		return errors.New("framework: no staged update")
	}
	staged := f.pending
	m, err := sandbox.Decode(staged.moduleBytes)
	if err != nil {
		return fmt.Errorf("framework: staged module no longer decodes: %w", err)
	}
	rec := &UpdateRecord{
		Version: staged.version,
		Digest:  hex.EncodeToString(staged.digest[:]),
		DevSig:  staged.devSig,
	}
	f.log.Append(EncodeRecord(rec))
	if f.enclave != nil {
		f.enclave.IncrementCounter()
	}
	inst, err := sandbox.NewInstance(m, f.hosts)
	if err != nil {
		// The digest is already logged; the domain is left without a
		// running application, which is itself observable by clients.
		f.pending = nil
		return fmt.Errorf("framework: instantiating update: %w", err)
	}
	f.version = staged.version
	f.digest = staged.digest
	f.instance = inst
	f.pending = nil
	return nil
}

// Install is StageUpdate followed by ActivateUpdate, for initial
// provisioning.
func (f *Framework) Install(version uint64, moduleBytes, devSig []byte) error {
	if err := f.StageUpdate(version, moduleBytes, devSig); err != nil {
		return err
	}
	return f.ActivateUpdate()
}

// Invoke runs one application request through the sandboxed module and
// returns the response bytes.
func (f *Framework) Invoke(request []byte) ([]byte, error) {
	if len(request) > MaxRequestLen {
		return nil, fmt.Errorf("framework: request of %d bytes exceeds limit", len(request))
	}
	f.invokeMu.Lock()
	defer f.invokeMu.Unlock()
	f.mu.Lock()
	inst := f.instance
	f.mu.Unlock()
	if inst == nil {
		return nil, errors.New("framework: no application installed")
	}
	if err := inst.WriteMemory(RequestOffset, request); err != nil {
		return nil, err
	}
	res, err := inst.Run(HandleFunc, f.gas, int64(RequestOffset), int64(len(request)))
	if err != nil {
		return nil, fmt.Errorf("framework: application trapped: %w", err)
	}
	respLen := res[0]
	if respLen < 0 || respLen > MaxResponseLen {
		return nil, fmt.Errorf("framework: application returned bad response length %d", respLen)
	}
	return inst.ReadMemory(ResponseOffset, int(respLen))
}

// Status reports the framework's current state.
func (f *Framework) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statusLocked()
}

// Snapshot reads the status and the update records from index from on
// under one lock hold, so a reply attesting both describes one
// framework state: no update can land between the two reads.
func (f *Framework) Snapshot(from int) (Status, [][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.log.Len()
	if from < 0 || from > n {
		return Status{}, nil, fmt.Errorf("history from %d out of range (length %d)", from, n)
	}
	records := make([][]byte, 0, n-from)
	for i := from; i < n; i++ {
		r, _ := f.log.Entry(i) // in range by the check above
		records = append(records, r)
	}
	return f.statusLocked(), records, nil
}

func (f *Framework) statusLocked() Status {
	head := f.log.Head()
	st := Status{
		Version:       f.version,
		CurrentDigest: hex.EncodeToString(f.digest[:]),
		LogLen:        f.log.Len(),
		LogHead:       head[:],
		Frozen:        f.frozen,
	}
	if f.enclave != nil {
		st.Counter = f.enclave.Counter()
	}
	if f.pending != nil {
		st.Pending = &PendingUpdate{
			Version: f.pending.version,
			Digest:  hex.EncodeToString(f.pending.digest[:]),
		}
	}
	return st
}

// AttestedStatus binds a status snapshot to the TEE: the quote's report
// data is SHA-256 over (nonce, version, digest, log head, log length).
type AttestedStatus struct {
	Status Status     `json:"status"`
	Quote  *tee.Quote `json:"quote,omitempty"` // nil for trust domain 0
}

// StatusReportData derives the 64-byte report data binding a status to a
// client nonce. Exported so verifying clients compute the same binding.
func StatusReportData(nonce []byte, st *Status) [64]byte {
	h := sha256.New()
	h.Write([]byte("framework-status-v1"))
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(nonce)))
	h.Write(lenBuf[:])
	h.Write(nonce)
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], st.Version)
	h.Write(v[:])
	h.Write([]byte(st.CurrentDigest))
	h.Write(st.LogHead)
	binary.BigEndian.PutUint64(v[:], uint64(st.LogLen))
	h.Write(v[:])
	binary.BigEndian.PutUint64(v[:], st.Counter)
	h.Write(v[:])
	if st.Pending != nil {
		binary.BigEndian.PutUint64(v[:], st.Pending.Version)
		h.Write(v[:])
		h.Write([]byte(st.Pending.Digest))
	}
	var rd [64]byte
	copy(rd[:32], h.Sum(nil))
	return rd
}

// AttestedStatus produces a status bound to the client's nonce via a TEE
// quote. For trust domain 0 (no enclave) the quote is nil; clients treat
// such domains as "developer-operated, unattested" per Figure 2.
func (f *Framework) AttestedStatus(nonce []byte) AttestedStatus {
	st := f.Status()
	out := AttestedStatus{Status: st}
	if f.enclave != nil {
		rd := StatusReportData(nonce, &st)
		out.Quote = f.enclave.GenerateQuote(rd)
	}
	return out
}
