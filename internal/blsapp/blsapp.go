// Package blsapp is the BLS threshold-signature application the paper's
// prototype evaluates (§5, Table 3), packaged for the framework:
//
//   - a sandbox module ("the application code") that implements the
//     share-signing algorithm — request parsing, the epoch guard, and
//     the full double-and-add scalar-multiplication control flow — as
//     interpreted bytecode;
//   - host functions exposing the curve primitives (hash-to-point, point
//     double/add, result emission) and the domain's key share, which is
//     the application state that lives behind the sandbox boundary; and
//   - client-side request/response codecs and a threshold-signing client
//     that collects shares from t domains and combines them.
//
// Requests and responses are versioned by refresh epoch (v2 framing): a
// sign request names the epoch it expects the domain's share to be at,
// the domain refuses to sign under any other epoch (answering with a
// stale-epoch marker carrying its current epoch instead), and every
// signature share is tagged with the epoch that produced it. Together
// with bls.CombineShares' mixed-epoch rejection this guarantees that a
// proactive refresh racing a signing round can only force a retry —
// never a combination of shares from different epochs. The refresh
// ceremony itself also runs through the sandbox (see refresh.go and
// ShareState).
//
// In the paper the application is libBLS compiled to WebAssembly: the
// whole signing computation runs sandboxed at ~1.46x native, because Wasm
// executes compiled code whose primitive unit is a native instruction. A
// bytecode interpreter is 50-100x slower per instruction, so running the
// 381-bit field arithmetic itself in the VM would destroy Table 3's
// shape. Instead the same layering is applied one level up: the signing
// algorithm (bit loop, conditional adds, data movement) executes inside
// the sandbox, and the primitive unit is a curve group operation provided
// by the host, crossed via the host-call boundary ~400 times per
// signature. DESIGN.md records this substitution.
package blsapp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/transport"
)

// Host-function import names.
const (
	HostShareScalar  = "bls_share_scalar"     // write the key-share scalar into guest memory
	HostHashToPoint  = "bls_hash_to_point"    // hash message bytes into a point slot
	HostSetInfinity  = "bls_set_infinity"     // reset a point slot to the identity
	HostDouble       = "bls_g1_double"        // double a point slot in place
	HostAdd          = "bls_g1_add"           // add src slot into dst slot
	HostEmitShare    = "bls_emit_share"       // write (index, epoch, compressed point) to guest memory
	HostEpochGuard   = "bls_epoch_guard"      // compare the request's expected epoch to the share's
	HostApplyRefresh = "bls_apply_refresh"    // validate + durably apply a refresh frame
	HostEmitStale    = "bls_emit_stale"       // write the stale-epoch marker + current epoch
	HostEmitAck      = "bls_emit_refresh_ack" // write the refresh ack + current epoch
)

// Request opcodes (first request byte). Opcode 1 was the pre-epoch sign
// framing and is no longer accepted: every sign request must state the
// epoch it expects.
const (
	opSignShare = 2 // [op:1][epoch:8 BE][message...]
	opRefresh   = 3 // [op:1][refresh frame] (see refresh.go)
)

// Response markers. Successful sign responses are responseLen bytes and
// start with the big-endian share index; marker responses are
// markerRespLen bytes.
const (
	respStale      = 0xfe // sign refused: [marker:1][domain epoch:8 BE]
	respRefreshAck = 0xfd // refresh applied: [marker:1][new epoch:8 BE]
)

// signReqHeaderLen is the sign-request framing before the message.
const signReqHeaderLen = 1 + 8

// markerRespLen is the length of stale/ack marker responses.
const markerRespLen = 1 + 8

// scratchScalar is the guest-memory offset where the module asks the host
// to place the 32-byte big-endian key-share scalar.
const scratchScalar = 1024

// moduleSrc implements the application: opcode 2 signs sig = share *
// H(msg) with the 256-bit MSB-first double-and-add loop running as
// interpreted bytecode, after an epoch guard that refuses requests for
// any epoch but the share's; opcode 3 hands a refresh frame to the host
// for validation and durable installation, moving the domain to the
// next epoch.
const moduleSrc = `
module memory=135168
import bls_share_scalar
import bls_hash_to_point
import bls_set_infinity
import bls_g1_double
import bls_g1_add
import bls_emit_share
import bls_epoch_guard
import bls_apply_refresh
import bls_emit_stale
import bls_emit_refresh_ack

func handle params=2 locals=2 results=1
    ; request = [op:1][...]
    localget 1
    push 1
    lts
    brif bad
    localget 0
    load8
    localset 2
    localget 2
    push 2
    eq
    brif sign
    localget 2
    push 3
    eq
    brif refresh
    br bad

sign:
    ; [op:1][epoch:8][message >= 1 byte]
    localget 1
    push 10
    lts
    brif bad

    ; refuse any epoch but the share's current one
    localget 0
    push 1
    add
    hostcall bls_epoch_guard
    eqz
    brif stale

    ; key-share scalar -> mem[1024..1056), big-endian
    push 1024
    hostcall bls_share_scalar
    drop

    ; slot 0 = H(msg) ; slot 1 = identity (accumulator)
    localget 0
    push 9
    add
    localget 1
    push 9
    sub
    push 0
    hostcall bls_hash_to_point
    push 1
    hostcall bls_set_infinity

    ; MSB-first double-and-add over all 256 scalar bits
    push 0
    localset 3           ; i = 0
bits:
    localget 3
    push 256
    ges
    brif emit
    push 1
    hostcall bls_g1_double
    ; bit = (mem[1024 + i/8] >> (7 - i%8)) & 1
    localget 3
    push 3
    shru
    push 1024
    add
    load8
    push 7
    localget 3
    push 7
    and
    sub
    shru
    push 1
    and
    eqz
    brif next
    push 1
    push 0
    hostcall bls_g1_add  ; acc += base
next:
    localget 3
    push 1
    add
    localset 3
    br bits

emit:
    push 1
    push 69632           ; framework.ResponseOffset
    hostcall bls_emit_share
    ret

refresh:
    ; [op:1][frame...]: the host validates and durably applies it
    localget 1
    push 2
    lts
    brif bad
    localget 0
    push 1
    add
    localget 1
    push 1
    sub
    hostcall bls_apply_refresh
    eqz
    brif bad
    push 69632
    hostcall bls_emit_refresh_ack
    ret

stale:
    push 69632
    hostcall bls_emit_stale
    ret

bad:
    push 0
    ret
end
`

// Module assembles the application module. The result is deterministic,
// so its Digest is the published code digest clients expect.
func Module() *sandbox.Module {
	return sandbox.MustAssemble(moduleSrc)
}

// ModuleBytes returns the canonical encoding of the application module.
func ModuleBytes() []byte { return Module().Encode() }

// responseLen is 4 bytes of share index, 8 bytes of epoch, plus a
// compressed G1 signature.
const responseLen = 4 + 8 + 48

// numPointSlots bounds the host-side point table.
const numPointSlots = 8

// writeMarker writes a [marker][epoch:8] response into guest memory.
func writeMarker(inst *sandbox.Instance, outPtr int64, marker byte, epoch uint64) ([]int64, error) {
	out := make([]byte, markerRespLen)
	out[0] = marker
	binary.BigEndian.PutUint64(out[1:], epoch)
	if err := inst.WriteMemory(int(outPtr), out); err != nil {
		return nil, err
	}
	return []int64{markerRespLen}, nil
}

// Hosts builds the host-function registry for a trust domain holding the
// given share state. The point-slot table is host-side state scoped to
// this registry (one per domain), guarded for the framework's serialized
// invocations; the share state carries its own lock because refresh
// ceremonies mutate it.
func Hosts(st *ShareState) map[string]*sandbox.HostFunc {
	var mu sync.Mutex
	var slots [numPointSlots]bls12381.G1Jac

	slotArg := func(v int64) (int, error) {
		if v < 0 || v >= numPointSlots {
			return 0, fmt.Errorf("blsapp: point slot %d out of range", v)
		}
		return int(v), nil
	}

	return map[string]*sandbox.HostFunc{
		HostShareScalar: {
			Name: HostShareScalar, Arity: 1, Results: 1, Gas: 50,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				ks := st.Current()
				b := ks.Share.Bytes()
				if err := inst.WriteMemory(int(args[0]), b[:]); err != nil {
					return nil, err
				}
				return []int64{int64(len(b))}, nil
			},
		},
		HostEpochGuard: {
			Name: HostEpochGuard, Arity: 1, Results: 1, Gas: 20,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				raw, err := inst.ReadMemory(int(args[0]), 8)
				if err != nil {
					return nil, err
				}
				if binary.BigEndian.Uint64(raw) == st.Epoch() {
					return []int64{1}, nil
				}
				return []int64{0}, nil
			},
		},
		HostApplyRefresh: {
			Name: HostApplyRefresh, Arity: 2, Results: 1, Gas: 500,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				if args[1] <= 0 || args[1] > framework.MaxRequestLen {
					return nil, fmt.Errorf("blsapp: bad refresh frame length %d", args[1])
				}
				raw, err := inst.ReadMemory(int(args[0]), int(args[1]))
				if err != nil {
					return nil, err
				}
				frame, err := DecodeRefreshFrame(raw)
				if err != nil {
					return nil, err
				}
				if err := st.ApplyRefresh(frame); err != nil {
					return nil, err
				}
				return []int64{1}, nil
			},
		},
		HostEmitStale: {
			Name: HostEmitStale, Arity: 1, Results: 1, Gas: 20,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				return writeMarker(inst, args[0], respStale, st.Epoch())
			},
		},
		HostEmitAck: {
			Name: HostEmitAck, Arity: 1, Results: 1, Gas: 20,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				return writeMarker(inst, args[0], respRefreshAck, st.Epoch())
			},
		},
		HostHashToPoint: {
			Name: HostHashToPoint, Arity: 3, Results: 0, Gas: 500,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				msgPtr, msgLen := args[0], args[1]
				slot, err := slotArg(args[2])
				if err != nil {
					return nil, err
				}
				if msgLen <= 0 || msgLen > framework.MaxRequestLen {
					return nil, fmt.Errorf("blsapp: bad message length %d", msgLen)
				}
				msg, err := inst.ReadMemory(int(msgPtr), int(msgLen))
				if err != nil {
					return nil, err
				}
				p := bls12381.HashToG1(msg, bls.SignatureDST)
				mu.Lock()
				slots[slot].FromAffine(&p)
				mu.Unlock()
				return nil, nil
			},
		},
		HostSetInfinity: {
			Name: HostSetInfinity, Arity: 1, Results: 0, Gas: 10,
			Fn: func(_ *sandbox.Instance, args []int64) ([]int64, error) {
				slot, err := slotArg(args[0])
				if err != nil {
					return nil, err
				}
				mu.Lock()
				slots[slot].SetInfinity()
				mu.Unlock()
				return nil, nil
			},
		},
		HostDouble: {
			Name: HostDouble, Arity: 1, Results: 0, Gas: 30,
			Fn: func(_ *sandbox.Instance, args []int64) ([]int64, error) {
				slot, err := slotArg(args[0])
				if err != nil {
					return nil, err
				}
				mu.Lock()
				slots[slot].Double(&slots[slot])
				mu.Unlock()
				return nil, nil
			},
		},
		HostAdd: {
			Name: HostAdd, Arity: 2, Results: 0, Gas: 30,
			Fn: func(_ *sandbox.Instance, args []int64) ([]int64, error) {
				dst, err := slotArg(args[0])
				if err != nil {
					return nil, err
				}
				src, err := slotArg(args[1])
				if err != nil {
					return nil, err
				}
				mu.Lock()
				slots[dst].Add(&slots[dst], &slots[src])
				mu.Unlock()
				return nil, nil
			},
		},
		HostEmitShare: {
			Name: HostEmitShare, Arity: 2, Results: 1, Gas: 100,
			Fn: func(inst *sandbox.Instance, args []int64) ([]int64, error) {
				slot, err := slotArg(args[0])
				if err != nil {
					return nil, err
				}
				outPtr := args[1]
				mu.Lock()
				aff := slots[slot].Affine()
				mu.Unlock()
				ks := st.Current()
				out := make([]byte, 0, responseLen)
				var idx [4]byte
				binary.BigEndian.PutUint32(idx[:], ks.Index)
				out = append(out, idx[:]...)
				var ep [8]byte
				binary.BigEndian.PutUint64(ep[:], ks.Epoch)
				out = append(out, ep[:]...)
				enc := aff.Bytes()
				out = append(out, enc[:]...)
				if err := inst.WriteMemory(int(outPtr), out); err != nil {
					return nil, err
				}
				return []int64{int64(len(out))}, nil
			},
		},
	}
}

// EncodeSignRequest builds the application request for signing msg at
// the given refresh epoch. Domains at any other epoch answer with a
// stale-epoch marker instead of a share.
func EncodeSignRequest(epoch uint64, msg []byte) []byte {
	out := make([]byte, signReqHeaderLen+len(msg))
	out[0] = opSignShare
	binary.BigEndian.PutUint64(out[1:], epoch)
	copy(out[signReqHeaderLen:], msg)
	return out
}

// DecodeSignRequestForNative parses a sign request into its expected
// epoch and the message to sign, for native (hwnext §4.2) application
// handlers that share the wire format with the sandboxed variants.
func DecodeSignRequestForNative(req []byte) (uint64, []byte, error) {
	if len(req) < signReqHeaderLen+1 || req[0] != opSignShare {
		return 0, nil, errors.New("blsapp: bad sign request")
	}
	return binary.BigEndian.Uint64(req[1:signReqHeaderLen]), req[signReqHeaderLen:], nil
}

// EncodeSignResponseForNative builds the wire response for a natively
// produced signature share.
func EncodeSignResponseForNative(share *bls.SignatureShare) []byte {
	out := make([]byte, 0, responseLen)
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], share.Index)
	out = append(out, idx[:]...)
	var ep [8]byte
	binary.BigEndian.PutUint64(ep[:], share.Epoch)
	out = append(out, ep[:]...)
	sig := share.Sig.Bytes()
	return append(out, sig[:]...)
}

// EncodeStaleResponseForNative builds the stale-epoch marker a native
// handler answers with when the request's epoch is not its share's.
func EncodeStaleResponseForNative(domainEpoch uint64) []byte {
	out := make([]byte, markerRespLen)
	out[0] = respStale
	binary.BigEndian.PutUint64(out[1:], domainEpoch)
	return out
}

// StaleEpochError reports that a domain refused to sign because its
// share is at a different refresh epoch than the request expected. The
// caller's threshold key is out of date (or the ceremony that rotates
// it has not reached every domain yet); retry with the current key.
type StaleEpochError struct {
	WantEpoch   uint64 // epoch the request asked for
	DomainEpoch uint64 // epoch the domain reports being at
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("blsapp: domain is at refresh epoch %d, request expected epoch %d (retry with the current threshold key)",
		e.DomainEpoch, e.WantEpoch)
}

// DecodeSignResponse parses an application response into a signature
// share. A stale-epoch marker decodes to a *StaleEpochError (with
// WantEpoch zero; the signing layer fills it in).
func DecodeSignResponse(resp []byte) (*bls.SignatureShare, error) {
	if len(resp) == 0 {
		return nil, errors.New("blsapp: application rejected the request")
	}
	if len(resp) == markerRespLen && resp[0] == respStale {
		return nil, &StaleEpochError{DomainEpoch: binary.BigEndian.Uint64(resp[1:])}
	}
	if len(resp) != responseLen {
		return nil, fmt.Errorf("blsapp: response of %d bytes, want %d", len(resp), responseLen)
	}
	var ss bls.SignatureShare
	ss.Index = binary.BigEndian.Uint32(resp[:4])
	ss.Epoch = binary.BigEndian.Uint64(resp[4:12])
	if err := ss.Sig.SetBytes(resp[12:]); err != nil {
		return nil, fmt.Errorf("blsapp: bad signature share encoding: %w", err)
	}
	return &ss, nil
}

// Invoker abstracts "send a request to domain i", satisfied by
// *core.Client (and so *core.Deployment); it keeps this package free of
// a dependency on core.
type Invoker interface {
	Invoke(domainIndex int, request []byte) ([]byte, error)
	NumDomains() int
}

// BatchInvoker is optionally satisfied by deployments whose domains accept
// batched invoke RPCs (*core.Client does); ThresholdSignBatch uses it
// to ship a domain's messages in one frame when there is more than one.
type BatchInvoker interface {
	Invoker
	InvokeBatch(domainIndex int, requests [][]byte) ([][]byte, []string, error)
}

// acceptShare screens a decoded response for the signing round: it
// appends same-epoch shares, converts cross-epoch responses (stale
// markers, or shares a misbehaving domain tagged with another epoch)
// into a *StaleEpochError, and passes other decode errors through.
func acceptShare(tk *bls.ThresholdKey, shares []bls.SignatureShare, resp []byte) ([]bls.SignatureShare, error) {
	ss, err := DecodeSignResponse(resp)
	if err != nil {
		var stale *StaleEpochError
		if errors.As(err, &stale) {
			stale.WantEpoch = tk.Epoch
		}
		return shares, err
	}
	if ss.Epoch != tk.Epoch {
		// Never let a share from another epoch near CombineShares.
		return shares, &StaleEpochError{WantEpoch: tk.Epoch, DomainEpoch: ss.Epoch}
	}
	return append(shares, *ss), nil
}

// ThresholdSign collects signature shares for msg from the first t
// responsive domains and combines them into the group signature: it is
// ThresholdSignBatch over one message, whose request goes to each domain
// as a plain invoke. Every share is requested — and accepted — at tk's
// refresh epoch only: a refresh ceremony racing the signing round
// surfaces as a *StaleEpochError (reload the key and retry), never as a
// mixed-epoch combination.
func ThresholdSign(inv Invoker, tk *bls.ThresholdKey, msg []byte) (*bls.Signature, error) {
	sigs, err := ThresholdSignBatch(inv, tk, [][]byte{msg})
	if err != nil {
		return nil, err
	}
	return sigs[0], nil
}

// ThresholdSignBatch signs every message in msgs, returning one group
// signature per message. It ships requests to each domain in batched
// invoke RPCs when the deployment supports them (chunked to the
// transport's per-frame cap) and asks each additional domain only for
// the messages still unsigned. Once a message has t shares they are
// combined and the result checked under the group key (bls Combine); a
// bad share is named there and dropped, and the next domain's share
// takes its place. Every signature returned verifies under tk.GroupKey.
// Shares are requested and accepted only at tk's epoch; a refresh
// racing the batch surfaces as a *StaleEpochError for the messages left
// short.
func ThresholdSignBatch(inv Invoker, tk *bls.ThresholdKey, msgs [][]byte) ([]*bls.Signature, error) {
	if len(msgs) == 0 {
		return nil, errors.New("blsapp: empty message batch")
	}
	reqs := make([][]byte, len(msgs))
	for i, m := range msgs {
		reqs[i] = EncodeSignRequest(tk.Epoch, m)
	}
	sigs := make([]*bls.Signature, len(msgs))
	shares := make([][]bls.SignatureShare, len(msgs))
	dropped := make([]error, len(msgs)) // the first share Combine named, per message
	var lastErr error
	var stale *StaleEpochError
	for i := 0; i < inv.NumDomains(); i++ {
		// Only messages still unsigned go to this domain.
		var pending []int
		for j := range msgs {
			if sigs[j] == nil {
				pending = append(pending, j)
			}
		}
		if len(pending) == 0 {
			break
		}
		pReqs := make([][]byte, len(pending))
		for k, j := range pending {
			pReqs[k] = reqs[j]
		}
		resps, errs, err := invokeMany(inv, i, pReqs)
		if err != nil {
			lastErr = err
			continue
		}
		for k, j := range pending {
			if errs[k] != "" {
				lastErr = errors.New(errs[k])
				continue
			}
			shares[j], err = acceptShare(tk, shares[j], resps[k])
			if err != nil {
				lastErr = err
				errors.As(err, &stale)
				continue
			}
			if len(shares[j]) < tk.T {
				continue
			}
			sigs[j], shares[j], err = tk.Combine(msgs[j], shares[j])
			if errors.Is(err, bls.ErrShareKeysDisagree) {
				return nil, fmt.Errorf("blsapp: message %d: %w", j, err)
			}
			if err != nil && dropped[j] == nil {
				dropped[j] = err
			}
		}
	}
	for j := range msgs {
		if sigs[j] != nil {
			continue
		}
		if stale != nil {
			return nil, fmt.Errorf("blsapp: message %d collected %d of %d shares: %w", j, len(shares[j]), tk.T, stale)
		}
		if dropped[j] != nil {
			return nil, fmt.Errorf("blsapp: message %d collected %d of %d shares (dropped: %v; last error: %v)",
				j, len(shares[j]), tk.T, dropped[j], lastErr)
		}
		return nil, fmt.Errorf("blsapp: message %d collected %d of %d shares (last error: %v)",
			j, len(shares[j]), tk.T, lastErr)
	}
	return sigs, nil
}

// invokeMany fetches one response per request from domain i: batched
// frames chunked to the transport's per-frame cap when the deployment
// supports them and there is more than one request, sequential invokes
// otherwise. Both returned slices have exactly one entry per request
// (truncated chunks from a misbehaving domain are padded in place with
// per-entry errors).
func invokeMany(inv Invoker, i int, requests [][]byte) ([][]byte, []string, error) {
	bi, hasBatch := inv.(BatchInvoker)
	if !hasBatch || len(requests) == 1 {
		resps := make([][]byte, len(requests))
		errs := make([]string, len(requests))
		for j, r := range requests {
			resp, err := inv.Invoke(i, r)
			if err != nil {
				errs[j] = err.Error()
				continue
			}
			resps[j] = resp
		}
		return resps, errs, nil
	}
	var resps [][]byte
	var errs []string
	for start := 0; start < len(requests); start += transport.MaxBatchCalls {
		end := start + transport.MaxBatchCalls
		if end > len(requests) {
			end = len(requests)
		}
		r, e, err := bi.InvokeBatch(i, requests[start:end])
		if err != nil {
			return nil, nil, err
		}
		// Pad both slices to the chunk size so positions stay aligned to
		// requests even when a misbehaving domain truncates one chunk.
		if len(r) > end-start {
			r = r[:end-start]
		}
		if len(e) < end-start {
			e = append(e, make([]string, end-start-len(e))...)
		}
		for k := len(r); k < end-start; k++ {
			r = append(r, nil)
			if e[k] == "" {
				e[k] = "blsapp: domain truncated the batch response"
			}
		}
		resps = append(resps, r...)
		errs = append(errs, e[:end-start]...)
	}
	return resps, errs, nil
}
