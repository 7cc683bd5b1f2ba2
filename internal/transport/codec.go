// Package transport provides the wire protocol used between clients,
// trust-domain hosts, and in-enclave frameworks: length-prefixed frames
// over net.Conn carrying envelopes — JSON (wire v1) on first contact and
// toward old peers, binary (wire v2, wire2.go) once both ends have shown
// they speak it — and both ends of the RPC built on them: a Server that
// dispatches requests and may push, and a Client whose one reader
// goroutine routes replies to concurrent callers by ID and pushed frames
// to a callback.
//
// The framing is deliberately simple (4-byte big-endian length + payload,
// hard size cap) so a malformed or malicious peer can at worst cause a
// closed connection, never unbounded allocation.
//
// OWNS: the frame codec and its size limits; both wire versions of the
// envelope and their negotiation (the offer a v1 request carries, the
// one sticky bit per connection per side, never v2 toward a peer that
// has not shown it); both halves of the request/response, _batch and
// push framing; call routing by request ID and push delivery (Client) as
// well as dispatch (Server) with its RPC metrics, spans and flight
// events; per-call deadlines; the managed client's retry, idempotency
// and breaker policy; MemListener.
//
// MUST NOT DO: know what any RPC kind means beyond the idempotency
// table, or what any body's binary form looks like (a result says it has
// one by implementing encoding.BinaryMarshaler; the forms live with
// their types); verify signatures, proofs or attestations; hold
// process-wide mutable state (no package-level variable is written after
// init); decide what to inject.
//
// MUST NOT import: any repro/internal package except obsv.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize caps a frame payload (16 MiB): large enough for code
// updates, small enough to bound allocation from hostile peers.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")

// Optional frame header section. A classic frame is [len:4][payload]
// with len <= MaxFrameSize (top length byte 0x00 or 0x01). A framed
// header section reuses the impossible top byte 0xEE as a marker:
//
//	[0xEE | hlen : 4][header : hlen][len : 4][payload : len]
//
// The header carries out-of-band request context — today an encoded
// obsv.TraceContext, so a sampled client audit's trace id rides with
// the request across daemons. Compatibility:
//
//   - headerless frames are BYTE-IDENTICAL to the classic format, and
//     readers updated for headers accept classic frames unchanged, so
//     old peers' traffic is never affected;
//   - a pre-header reader that receives a header frame sees a length
//     word above MaxFrameSize and fails with ErrFrameTooLarge — the
//     connection closes cleanly, nothing misparses. Headers are
//     therefore only attached when tracing is explicitly enabled
//     toward a peer known to speak them (all daemons in one
//     deployment upgrade together), and only on sampled requests.
const (
	// headerMagic is the top byte of the first length word of a frame
	// carrying a header section. Classic frames can never produce it:
	// their top byte is at most 0x01 (MaxFrameSize = 0x01000000).
	headerMagic = 0xEE
	// MaxHeaderSize caps the header section (far above the 26-byte
	// trace context, far below anything that could hurt).
	MaxHeaderSize = 1 << 10
)

// ErrHeaderTooLarge is returned when a peer announces an oversized
// frame header section.
var ErrHeaderTooLarge = errors.New("transport: frame header exceeds maximum size")

// beginFrame starts a frame at the end of b: the optional header section,
// then a reserved length word, whose offset it returns. The payload is
// whatever the caller appends next; endFrame fills the word in. Encoders
// build a frame in one buffer this way and hand it to a single Write, so
// each frame is one segment on the wire and nothing is copied twice.
func beginFrame(b, header []byte) (_ []byte, lengthAt int, err error) {
	if len(header) > MaxHeaderSize {
		return b, 0, ErrHeaderTooLarge
	}
	if len(header) > 0 {
		b = binary.BigEndian.AppendUint32(b, headerMagic<<24|uint32(len(header)))
		b = append(b, header...)
	}
	return append(b, 0, 0, 0, 0), len(b), nil
}

// endFrame closes the frame begun at lengthAt.
func endFrame(b []byte, lengthAt int) error {
	n := len(b) - lengthAt - 4
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[lengthAt:], uint32(n))
	return nil
}

// maxKeptBuffer is the largest frame buffer a connection keeps for its
// next frame; one oversized frame (a code update, a big submitbatch) is
// not pinned for the connection's lifetime.
const maxKeptBuffer = 64 << 10

// keepBuffer returns b for reuse, or nil when it has grown too large.
func keepBuffer(b []byte) []byte {
	if cap(b) > maxKeptBuffer {
		return nil
	}
	return b
}

// WriteFrame writes one length-prefixed frame in a single Write.
func WriteFrame(w io.Writer, payload []byte) error {
	return WriteFrameHeader(w, nil, payload)
}

// WriteFrameHeader writes one frame with an optional header section.
// An empty header produces a classic frame. Header and payload go out
// in a single Write so each frame is one segment on the wire (loopback
// round trips dominate the TEE deployment's cost; see EXPERIMENTS.md).
func WriteFrameHeader(w io.Writer, header, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	buf, at, err := beginFrame(make([]byte, 0, 8+len(header)+len(payload)), header)
	if err != nil {
		return err
	}
	buf = append(buf, payload...)
	if err := endFrame(buf, at); err != nil {
		return err
	}
	return writeFrame(w, buf)
}

// writeFrame hands one finished frame to w.
func writeFrame(w io.Writer, frame []byte) error {
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("transport: writing frame: %w", err)
	}
	return nil
}

// readBufferSize is the bufio.Reader each connection's one reader reads
// frames through, so a frame that fits costs one read from the socket,
// not one for its length word and one for its payload. It holds a whole
// hot proof reply and any request of the read path; a larger frame's
// remainder is still read straight into the frame's own slice.
const readBufferSize = 4096

// ReadFrame reads one length-prefixed frame, discarding any header
// section.
func ReadFrame(r io.Reader) ([]byte, error) {
	_, payload, err := ReadFrameHeader(r)
	return payload, err
}

// ReadFrameHeader reads one frame, returning its header section (nil
// for classic frames) and payload.
func ReadFrameHeader(r io.Reader) (header, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("transport: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n>>24 == headerMagic {
		hlen := n & 0x00FFFFFF
		if hlen == 0 || hlen > MaxHeaderSize {
			return nil, nil, ErrHeaderTooLarge
		}
		header = make([]byte, hlen)
		if _, err := io.ReadFull(r, header); err != nil {
			return nil, nil, fmt.Errorf("transport: reading frame header section: %w", err)
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, nil, fmt.Errorf("transport: reading frame length: %w", err)
		}
		n = binary.BigEndian.Uint32(hdr[:])
	}
	if n > MaxFrameSize {
		return nil, nil, ErrFrameTooLarge
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, nil, fmt.Errorf("transport: reading frame payload: %w", err)
	}
	return header, payload, nil
}
