package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire v2, the one frame payload format. The frame around it — the
// 4-byte length word, the optional 0xEE header section — is codec.go's;
// the payload is this:
//
//	envelope   0xB2 | flags | uvarint id | [kind] | [error] | body…
//	container  uvarint count | count × entry
//	entry      flags | [kind] | [error] | uvarint len | body
//
//	kind, error   uvarint len, then the bytes. kind is present unless
//	              flagReply is set (requests and pushes carry one);
//	              error is present when flagError is set.
//	body          an envelope's body runs to the end of the frame. It is
//	              JSON unless a flag or the marker says otherwise.
//
// A _batch request, its reply and a push have flagBatch set and a
// container for a body; IDs inside it are positional, so a body is never
// wrapped, validated or copied a second time on its way through.
//
// Which bodies are binary is not this package's business: a reply's
// body is marked flagBinary when the handler's result implements
// encoding.BinaryMarshaler, and only an out implementing
// encoding.BinaryUnmarshaler may receive it (ErrBinaryBody otherwise).
// A request body is binary when it begins with markerV2, which no JSON
// text can: the marker, then the binary form of an In implementing
// AppendBinary. Handlers read either form through DecodeBody, so a
// client that writes JSON bodies is still served. Pushes always carry
// JSON bodies.
//
// Both ends write this format from a connection's first frame, and
// nothing selects another: a payload that does not begin with markerV2 —
// the JSON envelope of wire v1, which this package no longer speaks — is
// a malformed frame, and the reader drops the connection.

// markerV2 opens every payload, and a binary request body. A JSON text
// begins with whitespace, a quote, a digit, '-', '{', '[' or a letter —
// never with a byte above 0x7F.
const markerV2 = 0xB2

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

// isV2 reports whether a payload or a request body begins with markerV2.
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
		if k := r.bytes(); string(k) == BatchKind {
			kind = BatchKind // the one kind this package knows: no copy
		} else {
			kind = string(k)
		}
	}
	if flags&flagError != 0 {
		errMsg = string(r.bytes())
	}
	return kind, errMsg
}

// parseEnvelope decodes a v2 frame payload. The envelope's Body aliases
// the frame, which each read allocates afresh.
func parseEnvelope(frame []byte) (*envelope, error) {
	env := new(envelope)
	if err := env.parse(frame); err != nil {
		return nil, err
	}
	return env, nil
}

// parse is parseEnvelope into an envelope the caller holds.
func (env *envelope) parse(frame []byte) error {
	r := v2Reader{b: frame}
	if r.byte() != markerV2 {
		return errMalformedV2
	}
	flags := r.flags(envelopeFlags)
	*env = envelope{
		ID:     r.uvarint(),
		OK:     flags&flagError == 0,
		reply:  flags&flagReply != 0,
		binary: flags&flagBinary != 0,
		batch:  flags&flagBatch != 0,
	}
	env.Kind, env.Error = r.meta(flags)
	if r.bad {
		return errMalformedV2
	}
	env.Body = r.b
	return nil
}

// entry is one decoded container entry; body aliases the frame.
type entry struct {
	flags        byte
	kind, errMsg string
	body         []byte
}

// openContainer starts reading a container body: its entry count,
// checked against MaxBatchCalls and against the bytes present (an entry
// is at least two) before anything is sized by it.
func openContainer(body []byte) (v2Reader, int, error) {
	r := v2Reader{b: body}
	n := r.uvarint()
	if r.bad || n > MaxBatchCalls || n > uint64(len(r.b)/2) {
		return r, 0, fmt.Errorf("%w: batch of %d entries in %d bytes (limit %d)", errMalformedV2, n, len(r.b), MaxBatchCalls)
	}
	return r, int(n), nil
}

// entry reads one container entry.
func (r *v2Reader) entry() (e entry) {
	e.flags = r.flags(entryFlags)
	e.kind, e.errMsg = r.meta(e.flags)
	e.body = r.bytes()
	return e
}

// parseContainer decodes a container body. Trailing bytes are an error.
func parseContainer(body []byte) ([]entry, error) {
	r, n, err := openContainer(body)
	if err != nil {
		return nil, err
	}
	entries := make([]entry, n)
	for i := range entries {
		entries[i] = r.entry()
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: batch entries", errMalformedV2)
	}
	return entries, nil
}

// parseSubRequests decodes the container of a _batch request or a push
// into the sub-requests it stands for, IDs assigned by position, in dst's
// array when it is large enough.
func parseSubRequests(dst []Request, body []byte) ([]Request, error) {
	r, n, err := openContainer(body)
	if err != nil {
		return nil, err
	}
	subs := slices.Grow(dst[:0], n)[:n]
	for i := range subs {
		e := r.entry()
		if e.flags != 0 {
			return nil, fmt.Errorf("%w: entry %d is not a plain request", errMalformedV2, i)
		}
		subs[i] = Request{ID: uint64(i + 1), Kind: e.kind, Body: e.body}
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: batch entries", errMalformedV2)
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
