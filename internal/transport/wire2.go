package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire v2: the second frame payload format. The frame around it — the
// 4-byte length word, the optional 0xEE header section — is untouched;
// only the payload changes, from a JSON envelope to this:
//
//	envelope   0xB2 | flags | uvarint id | [kind] | [error] | body…
//	container  uvarint count | count × entry
//	entry      flags | [kind] | [error] | uvarint len | body
//
//	kind, error   uvarint len, then the bytes. kind is present unless
//	              flagReply is set (requests and pushes carry one);
//	              error is present when flagError is set.
//	body          an envelope's body runs to the end of the frame. It is
//	              JSON unless a flag says otherwise.
//
// A _batch request, its reply and a push have flagBatch set and a
// container for a body; the entries take the places of the JSON lists of
// sub-requests and sub-responses (IDs are positional), so a body is
// never wrapped, validated or copied a second time on its way through.
//
// Which bodies are binary is not this package's business: a reply's
// body is marked flagBinary when the handler's result implements
// encoding.BinaryMarshaler, and only an out implementing
// encoding.BinaryUnmarshaler may receive it (ErrBinaryBody otherwise).
// Requests and pushes always carry JSON bodies.
//
// Negotiation costs no round trip and one sticky bit per side. A
// Client's v1 requests carry "v":2; a v1-only server ignores the field
// and the connection stays v1 for good. A Server that reads the offer —
// or any v2 frame — answers that request, and writes every later reply
// and push on that connection, in v2. A Client that has received a v2
// frame writes v2 requests from then on. Invariants: neither side emits
// v2 toward a peer that has not shown it; every reader accepts both
// formats at any time and tells them apart by the first payload byte,
// which JSON can never begin with; a new connection (a ManagedClient
// reconnect included) starts over at v1. No flag, option or build tag
// selects a format: the only way to see v1 is to talk to a v1 peer.

const (
	// markerV2 opens every v2 payload. A JSON text begins with
	// whitespace, a quote, a digit, '-', '{', '[' or a letter — never
	// with a byte above 0x7F.
	markerV2 = 0xB2
	// offerV2 is the "v" a v1 request carries to offer the upgrade.
	offerV2 = 2
)

// Envelope and entry flags.
const (
	flagReply  = 1 << 0 // a reply: no kind follows the id
	flagError  = 1 << 1 // a failed reply: an error string follows, the body is empty
	flagBinary = 1 << 2 // the body is its type's binary form, not JSON
	flagBatch  = 1 << 3 // the body is a container (envelopes only)

	envelopeFlags = flagReply | flagError | flagBinary | flagBatch
	entryFlags    = flagReply | flagError | flagBinary
)

var errMalformedV2 = errors.New("transport: malformed v2 frame")

// isV2 reports whether a frame payload is in wire v2.
func isV2(frame []byte) bool { return len(frame) > 0 && frame[0] == markerV2 }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendEnvelope appends a v2 envelope up to its body, which is whatever
// the caller appends next.
func appendEnvelope(b []byte, flags byte, id uint64, kind, errMsg string) []byte {
	b = append(b, markerV2, flags)
	b = binary.AppendUvarint(b, id)
	return appendMeta(b, flags, kind, errMsg)
}

// appendEntry appends one container entry.
func appendEntry(b []byte, flags byte, kind, errMsg string, body []byte) []byte {
	b = appendMeta(append(b, flags), flags, kind, errMsg)
	return append(binary.AppendUvarint(b, uint64(len(body))), body...)
}

// appendMeta appends the kind and error strings the flags call for.
func appendMeta(b []byte, flags byte, kind, errMsg string) []byte {
	if flags&flagReply == 0 {
		b = appendString(b, kind)
	}
	if flags&flagError != 0 {
		b = appendString(b, errMsg)
	}
	return b
}

// v2Reader consumes a v2 payload front to back, checking every length
// against what is left before it slices. The first failure sticks.
type v2Reader struct {
	b   []byte
	bad bool
}

func (r *v2Reader) byte() byte {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *v2Reader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed field. The result aliases the frame.
func (r *v2Reader) bytes() []byte {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// flags reads a flags byte, which may have only the allowed bits set.
func (r *v2Reader) flags(allowed byte) byte {
	f := r.byte()
	if f&^allowed != 0 {
		r.bad = true
	}
	return f
}

// meta reads the kind and error strings the flags call for.
func (r *v2Reader) meta(flags byte) (kind, errMsg string) {
	if flags&flagReply == 0 {
		kind = string(r.bytes())
	}
	if flags&flagError != 0 {
		errMsg = string(r.bytes())
	}
	return kind, errMsg
}

// parseEnvelope decodes a v2 frame payload. The envelope's Body aliases
// the frame, which each read allocates afresh.
func parseEnvelope(frame []byte) (*envelope, error) {
	r := v2Reader{b: frame}
	if r.byte() != markerV2 {
		return nil, errMalformedV2
	}
	flags := r.flags(envelopeFlags)
	env := &envelope{
		ID:     r.uvarint(),
		OK:     flags&flagError == 0,
		reply:  flags&flagReply != 0,
		binary: flags&flagBinary != 0,
		batch:  flags&flagBatch != 0,
	}
	env.Kind, env.Error = r.meta(flags)
	if r.bad {
		return nil, errMalformedV2
	}
	env.Body = r.b
	return env, nil
}

// entry is one decoded container entry; body aliases the frame.
type entry struct {
	flags        byte
	kind, errMsg string
	body         []byte
}

// parseContainer decodes a container body. The count is checked against
// MaxBatchCalls and against the bytes present (an entry is at least two)
// before the slice is made, and trailing bytes are an error.
func parseContainer(body []byte) ([]entry, error) {
	r := v2Reader{b: body}
	n := r.uvarint()
	if r.bad || n > MaxBatchCalls || n > uint64(len(r.b)/2) {
		return nil, fmt.Errorf("%w: batch of %d entries in %d bytes (limit %d)", errMalformedV2, n, len(r.b), MaxBatchCalls)
	}
	entries := make([]entry, n)
	for i := range entries {
		e := &entries[i]
		e.flags = r.flags(entryFlags)
		e.kind, e.errMsg = r.meta(e.flags)
		e.body = r.bytes()
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: batch entries", errMalformedV2)
	}
	return entries, nil
}

// parseSubRequests decodes the container of a _batch request or a push
// into the sub-requests it stands for, IDs assigned by position.
func parseSubRequests(body []byte) ([]Request, error) {
	entries, err := parseContainer(body)
	if err != nil {
		return nil, err
	}
	subs := make([]Request, len(entries))
	for i, e := range entries {
		if e.flags != 0 {
			return nil, fmt.Errorf("%w: entry %d is not a plain request", errMalformedV2, i)
		}
		subs[i] = Request{ID: uint64(i + 1), Kind: e.kind, Body: e.body}
	}
	return subs, nil
}

// appendSubRequests appends the container form of a sub-request list.
func appendSubRequests(b []byte, subs []Request) []byte {
	b = binary.AppendUvarint(b, uint64(len(subs)))
	for i := range subs {
		b = appendEntry(b, 0, subs[i].Kind, "", subs[i].Body)
	}
	return b
}
