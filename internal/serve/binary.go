package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/aolog"
)

// ProofResponse's binary form, what a "proof" reply is on a wire-v2
// connection (aolog/binary.go has the primitives and the nested forms):
//
//	flags byte | int index | int size | bytes payload |
//	[ShardInclusionProof] | [BLSSignedHead head] | [BLSSignedHead stale]
//
// flags says which of the optional parts follow, in that order, and
// carries Overloaded; a decoder rejects bits it does not know.
const (
	proofHasProof   = 1 << 0
	proofHasHead    = 1 << 1
	proofOverloaded = 1 << 2
	proofHasStale   = 1 << 3
	proofKnownFlags = proofHasProof | proofHasHead | proofOverloaded | proofHasStale
)

// AppendBinary appends the response's binary form to b.
func (r *ProofResponse) AppendBinary(b []byte) ([]byte, error) {
	if r == nil {
		return b, errors.New("serve: nil proof response has no binary form")
	}
	var flags byte
	if r.Proof != nil {
		flags |= proofHasProof
	}
	if r.Head != nil {
		flags |= proofHasHead
	}
	if r.Overloaded {
		flags |= proofOverloaded
	}
	if r.StaleHead != nil {
		flags |= proofHasStale
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(r.Index))
	b = binary.AppendUvarint(b, uint64(r.Size))
	if r.Payload == nil {
		b = append(b, 0)
	} else {
		b = append(binary.AppendUvarint(b, uint64(len(r.Payload))+1), r.Payload...)
	}
	var err error
	if r.Proof != nil {
		if b, err = r.Proof.AppendBinary(b); err != nil {
			return b, err
		}
	}
	if r.Head != nil {
		if b, err = r.Head.AppendBinary(b); err != nil {
			return b, err
		}
	}
	if r.StaleHead != nil {
		if b, err = r.StaleHead.AppendBinary(b); err != nil {
			return b, err
		}
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *ProofResponse) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It replaces
// the whole value, copies what it keeps, rejects trailing bytes and
// leaves r untouched on error.
func (r *ProofResponse) UnmarshalBinary(data []byte) error {
	malformed := func(what string) error {
		return fmt.Errorf("serve: malformed binary proof response: %s", what)
	}
	if len(data) == 0 {
		return malformed("empty")
	}
	flags, data := data[0], data[1:]
	if flags&^proofKnownFlags != 0 {
		return malformed(fmt.Sprintf("unknown flags %#x", flags))
	}
	out := ProofResponse{Overloaded: flags&proofOverloaded != 0}
	var ok bool
	if out.Index, data, ok = readInt(data); !ok {
		return malformed("integer")
	}
	if out.Size, data, ok = readInt(data); !ok {
		return malformed("integer")
	}
	u, n := binary.Uvarint(data) // len(Payload)+1; 0 is nil
	if n <= 0 || u > uint64(len(data)-n)+1 {
		return malformed("payload length")
	}
	data = data[n:]
	if u > 0 {
		out.Payload = append(make([]byte, 0, u-1), data[:u-1]...)
		data = data[u-1:]
	}
	var err error
	if flags&proofHasProof != 0 {
		out.Proof = new(aolog.ShardInclusionProof)
		if data, err = out.Proof.DecodeBinary(data); err != nil {
			return err
		}
	}
	if flags&proofHasHead != 0 {
		out.Head = new(aolog.BLSSignedHead)
		if data, err = out.Head.DecodeBinary(data); err != nil {
			return err
		}
	}
	if flags&proofHasStale != 0 {
		out.StaleHead = new(aolog.BLSSignedHead)
		if data, err = out.StaleHead.DecodeBinary(data); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return malformed(fmt.Sprintf("%d trailing bytes", len(data)))
	}
	*r = out
	return nil
}

// The request forms, what a "proof" or "consistency" request body is
// after transport's marker byte once the server has said it reads binary
// request bodies:
//
//	ProofRequest        int index | int size
//	ConsistencyRequest  int old | int new
//
// An int is aolog's primitive, a uvarint of the two's-complement uint64,
// so negative values and 0 ("the current head") round-trip exactly as
// they do through JSON. The encoders have value receivers because
// requests travel by value.

// AppendBinary appends the request's binary form to b.
func (r ProofRequest) AppendBinary(b []byte) ([]byte, error) {
	return appendInts(b, r.Index, r.Size), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r ProofRequest) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It rejects a
// truncated or oversized int and trailing bytes, and leaves r untouched
// on error.
func (r *ProofRequest) UnmarshalBinary(data []byte) error {
	index, size, err := readIntPair("proof request", data)
	if err == nil {
		*r = ProofRequest{Index: index, Size: size}
	}
	return err
}

// AppendBinary appends the request's binary form to b.
func (r ConsistencyRequest) AppendBinary(b []byte) ([]byte, error) {
	return appendInts(b, r.OldSize, r.NewSize), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r ConsistencyRequest) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, with
// ProofRequest's rules.
func (r *ConsistencyRequest) UnmarshalBinary(data []byte) error {
	oldSize, newSize, err := readIntPair("consistency request", data)
	if err == nil {
		*r = ConsistencyRequest{OldSize: oldSize, NewSize: newSize}
	}
	return err
}

func appendInts(b []byte, a, c int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(a)), uint64(c))
}

// readInt decodes an int from the front of data and returns the rest.
func readInt(data []byte) (int, []byte, bool) {
	u, n := binary.Uvarint(data)
	if n <= 0 || uint64(int(u)) != u {
		return 0, data, false
	}
	return int(u), data[n:], true
}

// readIntPair decodes a form that is exactly two ints.
func readIntPair(what string, data []byte) (a, b int, err error) {
	a, data, okA := readInt(data)
	b, data, okB := readInt(data)
	switch {
	case !okA || !okB:
		return 0, 0, fmt.Errorf("serve: malformed binary %s: integer", what)
	case len(data) != 0:
		return 0, 0, fmt.Errorf("serve: malformed binary %s: %d trailing bytes", what, len(data))
	}
	return a, b, nil
}
