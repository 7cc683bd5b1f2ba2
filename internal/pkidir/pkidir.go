// Package pkidir implements the application the paper's conclusion (§6)
// suggests: an end-to-end encrypted messaging service using distributed
// trust to establish a public-key infrastructure. Each trust domain runs
// a key directory inside the bootstrap framework; a user's client
// registers (username, public key) with every domain and a sender
// cross-checks lookups across all n domains, so a single compromised
// domain cannot serve a fake key without detection (the classic
// key-server attack on E2EE messaging).
//
// The directory application follows the same architecture as blsapp: the
// sandbox module parses, validates, and dispatches requests (interpreted
// bytecode — this is the code the developer updates and the log
// attests), while the directory state lives host-side behind host
// functions, surviving code updates. Each domain's directory also keeps
// a Merkle transparency log of bindings so lookups carry inclusion
// proofs.
package pkidir

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/aolog"
	"repro/internal/sandbox"
)

// Operation codes in the request wire format.
const (
	opRegister = 1
	opLookup   = 2
)

// KeySize is the size of directory values (e.g. an X25519 or Ed25519 key).
const KeySize = 32

// MaxNameLen bounds usernames.
const MaxNameLen = 64

// Host import names.
const (
	HostRegister = "dir_register"
	HostLookup   = "dir_lookup"
)

// moduleSrc validates and dispatches directory requests inside the
// sandbox:
//
//	register: [1][nameLen u8][name...][key 32]
//	lookup:   [2][nameLen u8][name...]
//
// Responses are produced by the host functions at the response offset;
// an invalid request yields an empty response.
const moduleSrc = `
module memory=135168
import dir_register
import dir_lookup

func handle params=2 locals=1 results=1
    localget 1
    push 2
    lts
    brif bad             ; need at least op + nameLen

    ; nameLen sanity: 1 <= nameLen <= 64
    localget 0
    push 1
    add
    load8
    localset 2           ; local2 = nameLen
    localget 2
    push 1
    lts
    brif bad
    localget 2
    push 64
    gts
    brif bad

    localget 0
    load8
    push 1
    eq
    brif register
    localget 0
    load8
    push 2
    eq
    brif lookup
    br bad

register:
    ; total length must be exactly 2 + nameLen + 32
    localget 1
    localget 2
    push 34
    add
    ne
    brif bad
    localget 0
    push 2
    add                  ; namePtr
    localget 2           ; nameLen
    push 69632           ; ResponseOffset
    hostcall dir_register
    ret

lookup:
    localget 1
    localget 2
    push 2
    add
    ne
    brif bad
    localget 0
    push 2
    add
    localget 2
    push 69632
    hostcall dir_lookup
    ret

bad:
    push 0
    ret
end
`

// Module assembles the directory application module.
func Module() *sandbox.Module { return sandbox.MustAssemble(moduleSrc) }

// ModuleBytes returns the canonical module encoding.
func ModuleBytes() []byte { return Module().Encode() }

// Binding is one logged (name, key) association.
type Binding struct {
	Name string `json:"name"`
	Key  []byte `json:"key"`
}

// Directory is one trust domain's host-side directory state: the latest
// key per name plus a Merkle transparency log of every binding ever
// registered. Safe for concurrent use.
type Directory struct {
	mu   sync.Mutex
	keys map[string][]byte
	log  aolog.MerkleLog
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{keys: make(map[string][]byte)}
}

// register stores a binding and returns its log index.
func (d *Directory) register(name string, key []byte) int {
	payload, _ := json.Marshal(Binding{Name: name, Key: key})
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys[name] = append([]byte{}, key...)
	return d.log.Append(payload)
}

// lookup returns the latest key, its inclusion proof, and the log root.
func (d *Directory) lookup(name string) ([]byte, *aolog.InclusionProof, []byte, aolog.Digest, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key, ok := d.keys[name]
	if !ok {
		return nil, nil, nil, aolog.Digest{}, false
	}
	// Find the most recent binding for name (scan back; directories are
	// small in this reproduction).
	for i := d.log.Len() - 1; i >= 0; i-- {
		payload, err := d.log.Entry(i)
		if err != nil {
			break
		}
		var b Binding
		if json.Unmarshal(payload, &b) == nil && b.Name == name {
			proof, err := d.log.ProveInclusion(i, d.log.Len())
			if err != nil {
				break
			}
			return key, proof, payload, d.log.Root(), true
		}
	}
	return nil, nil, nil, aolog.Digest{}, false
}

// LookupResponse is the wire response for a lookup.
type LookupResponse struct {
	Key     []byte                `json:"key"`
	Payload []byte                `json:"payload"` // logged binding payload
	Proof   *aolog.InclusionProof `json:"proof"`
	Root    []byte                `json:"root"`
}

// RegisterResponse is the wire response for a registration.
type RegisterResponse struct {
	LogIndex int `json:"log_index"`
}

// Hosts builds the host-function registry backed by dir.
func Hosts(dir *Directory) map[string]*sandbox.HostFunc {
	readName := func(inst *sandbox.Instance, ptr, n int64) (string, error) {
		if n < 1 || n > MaxNameLen {
			return "", fmt.Errorf("pkidir: bad name length %d", n)
		}
		b, err := inst.ReadMemory(int(ptr), int(n))
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	writeResp := func(inst *sandbox.Instance, out int64, v any) (int64, error) {
		enc, err := json.Marshal(v)
		if err != nil {
			return 0, err
		}
		if err := inst.WriteMemory(int(out), enc); err != nil {
			return 0, err
		}
		return int64(len(enc)), nil
	}
	return map[string]*sandbox.HostFunc{
		HostRegister: {
			Name: HostRegister, Arity: 3, Results: 1, Gas: 200,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				name, err := readName(inst, args[0], args[1])
				if err != nil {
					return nil, err
				}
				key, err := inst.ReadMemory(int(args[0]+args[1]), KeySize)
				if err != nil {
					return nil, err
				}
				idx := dir.register(name, key)
				n, err := writeResp(inst, args[2], RegisterResponse{LogIndex: idx})
				if err != nil {
					return nil, err
				}
				return []int64{n}, nil
			},
		},
		HostLookup: {
			Name: HostLookup, Arity: 3, Results: 1, Gas: 200,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				name, err := readName(inst, args[0], args[1])
				if err != nil {
					return nil, err
				}
				key, proof, payload, root, ok := dir.lookup(name)
				if !ok {
					return []int64{0}, nil // empty response = not found
				}
				n, err := writeResp(inst, args[2], LookupResponse{
					Key: key, Payload: payload, Proof: proof, Root: root[:],
				})
				if err != nil {
					return nil, err
				}
				return []int64{n}, nil
			},
		},
	}
}

// EncodeRegister builds a registration request.
func EncodeRegister(name string, key []byte) ([]byte, error) {
	if len(name) == 0 || len(name) > MaxNameLen {
		return nil, fmt.Errorf("pkidir: name length %d out of range", len(name))
	}
	if len(key) != KeySize {
		return nil, fmt.Errorf("pkidir: key must be %d bytes", KeySize)
	}
	out := make([]byte, 0, 2+len(name)+KeySize)
	out = append(out, opRegister, byte(len(name)))
	out = append(out, name...)
	out = append(out, key...)
	return out, nil
}

// EncodeLookup builds a lookup request.
func EncodeLookup(name string) ([]byte, error) {
	if len(name) == 0 || len(name) > MaxNameLen {
		return nil, fmt.Errorf("pkidir: name length %d out of range", len(name))
	}
	out := make([]byte, 0, 2+len(name))
	out = append(out, opLookup, byte(len(name)))
	out = append(out, name...)
	return out, nil
}

// DecodeLookup parses and verifies a lookup response: the inclusion
// proof must bind the returned payload to the returned root, and the
// payload must decode to a binding for the queried name and key.
func DecodeLookup(name string, resp []byte) (*LookupResponse, error) {
	if len(resp) == 0 {
		return nil, errors.New("pkidir: name not found")
	}
	var lr LookupResponse
	if err := json.Unmarshal(resp, &lr); err != nil {
		return nil, fmt.Errorf("pkidir: bad lookup response: %w", err)
	}
	var root aolog.Digest
	if len(lr.Root) != len(root) {
		return nil, errors.New("pkidir: bad root length")
	}
	copy(root[:], lr.Root)
	if !aolog.VerifyInclusion(lr.Payload, lr.Proof, root) {
		return nil, errors.New("pkidir: inclusion proof invalid")
	}
	var b Binding
	if err := json.Unmarshal(lr.Payload, &b); err != nil {
		return nil, fmt.Errorf("pkidir: bad binding payload: %w", err)
	}
	if b.Name != name {
		return nil, errors.New("pkidir: proof covers a different name")
	}
	if !bytes.Equal(b.Key, lr.Key) {
		return nil, errors.New("pkidir: key does not match logged binding")
	}
	return &lr, nil
}

// Invoker matches blsapp.Invoker (satisfied by *core.Client and so
// *core.Deployment).
type Invoker interface {
	Invoke(domainIndex int, request []byte) ([]byte, error)
	NumDomains() int
}

// RegisterEverywhere registers a binding with every trust domain.
func RegisterEverywhere(inv Invoker, name string, key []byte) error {
	req, err := EncodeRegister(name, key)
	if err != nil {
		return err
	}
	for i := 0; i < inv.NumDomains(); i++ {
		resp, err := inv.Invoke(i, req)
		if err != nil {
			return fmt.Errorf("pkidir: registering with domain %d: %w", i, err)
		}
		if len(resp) == 0 {
			return fmt.Errorf("pkidir: domain %d rejected the registration", i)
		}
	}
	return nil
}

// LookupEverywhere fetches the binding from every domain, verifies each
// proof, and requires all domains to agree on the key: the sender's
// cross-check that makes a single lying key server detectable.
func LookupEverywhere(inv Invoker, name string) ([]byte, error) {
	req, err := EncodeLookup(name)
	if err != nil {
		return nil, err
	}
	var agreed []byte
	for i := 0; i < inv.NumDomains(); i++ {
		resp, err := inv.Invoke(i, req)
		if err != nil {
			return nil, fmt.Errorf("pkidir: lookup at domain %d: %w", i, err)
		}
		lr, err := DecodeLookup(name, resp)
		if err != nil {
			return nil, fmt.Errorf("pkidir: domain %d: %w", i, err)
		}
		if agreed == nil {
			agreed = lr.Key
		} else if !bytes.Equal(agreed, lr.Key) {
			return nil, fmt.Errorf("pkidir: domains disagree on the key for %q (possible targeted key substitution)", name)
		}
	}
	if agreed == nil {
		return nil, errors.New("pkidir: no domains to query")
	}
	return agreed, nil
}
