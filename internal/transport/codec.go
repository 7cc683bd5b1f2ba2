// Package transport provides the wire protocol used between clients,
// trust-domain hosts, and in-enclave frameworks: length-prefixed frames
// carrying JSON-encoded envelopes over net.Conn, and both ends of the
// RPC built on them: a Server that dispatches requests and may push,
// and a Client whose one reader goroutine routes replies to concurrent
// callers by ID and pushed frames to a callback.
//
// The framing is deliberately simple (4-byte big-endian length + payload,
// hard size cap) so a malformed or malicious peer can at worst cause a
// closed connection, never unbounded allocation.
//
// OWNS: the frame codec and its size limits; both halves of the
// request/response, _batch and push framing; call routing by request ID
// and push delivery (Client) as well as dispatch (Server) with its RPC
// metrics, spans and flight events; per-call deadlines; the managed
// client's retry, idempotency and breaker policy; MemListener.
//
// MUST NOT DO: know what any RPC kind means beyond the idempotency
// table; verify signatures, proofs or attestations; hold process-wide
// mutable state (no package-level variable is written after init);
// decide what to inject.
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

// WriteFrame writes one length-prefixed frame. Header and payload go out
// in a single Write so each frame is one segment on the wire (loopback
// round trips dominate the TEE deployment's cost; see EXPERIMENTS.md).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: writing frame: %w", err)
	}
	return nil
}

// WriteFrameHeader writes one frame with an optional header section.
// An empty header produces a classic frame, byte-identical to
// WriteFrame's output. Header and payload go out in a single Write.
func WriteFrameHeader(w io.Writer, header, payload []byte) error {
	if len(header) == 0 {
		return WriteFrame(w, payload)
	}
	if len(header) > MaxHeaderSize {
		return ErrHeaderTooLarge
	}
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4+len(header)+4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], headerMagic<<24|uint32(len(header)))
	copy(buf[4:], header)
	off := 4 + len(header)
	binary.BigEndian.PutUint32(buf[off:off+4], uint32(len(payload)))
	copy(buf[off+4:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: writing frame: %w", err)
	}
	return nil
}

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
