package aolog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Binary forms of the read path's types: what a signed head and the
// proofs under it look like on a wire-v2 connection (DESIGN.md §10,
// "Wire format v2"). Every persisted or evidentiary encoding — witness
// journal, head.json, exported equivocation proofs — stays JSON; these
// forms exist only between a serving daemon and a client that asked.
//
// Primitives, shared by every type below:
//
//	int      uvarint of the value as a two's-complement uint64, so the
//	         sizes an honest log produces take one to three bytes and
//	         any int round-trips (a negative one costs ten bytes and
//	         fails verification, as it does out of JSON)
//	digest   32 raw bytes
//	bytes    uvarint(len+1), then the bytes; 0 is a nil slice
//	digests  uvarint(count+1), then count digests; 0 is a nil slice
//
// Each type offers AppendBinary (the encoder; MarshalBinary is
// AppendBinary(nil)), DecodeBinary (decode from the front of a buffer,
// return the rest) and UnmarshalBinary (DecodeBinary that rejects
// trailing bytes). A decoder checks every count against its cap and
// every length against what is left of the input before it allocates,
// copies what it keeps, and leaves its receiver untouched on error.

// Decoder caps. An RFC 6962 path over an int-sized tree has at most 65
// entries; a shard count is whatever the operator chose (the monitor's
// default is 4). Encoders refuse what decoders would, so an honest
// server never sends what a client cannot read.
const (
	maxBinaryPath   = 128
	maxBinaryShards = 1 << 12
)

func appendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	return append(binary.AppendUvarint(b, uint64(len(p))+1), p...)
}

func appendDigests(b []byte, what string, ds []Digest, max int) ([]byte, error) {
	if len(ds) > max {
		return b, fmt.Errorf("aolog: %s of %d digests exceeds the binary form's limit %d", what, len(ds), max)
	}
	if ds == nil {
		return append(b, 0), nil
	}
	b = binary.AppendUvarint(b, uint64(len(ds))+1)
	if len(ds) == 0 {
		return b, nil
	}
	// A []Digest is one run of 32-byte arrays with no padding, so the
	// whole path goes out in one copy.
	return append(b, unsafe.Slice(&ds[0][0], len(ds)*DigestSize)...), nil
}

// binReader consumes a binary form front to back. The first failure
// sticks: every later read returns zero values, and the caller checks
// err once at the end.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("aolog: malformed binary form: "+format, args...)
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or oversized varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) int() int {
	u := r.uvarint()
	v := int(u)
	if uint64(v) != u {
		r.fail("integer %d does not fit an int", u)
		return 0
	}
	return v
}

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// count reads a length-plus-one prefix for elements of size each: the
// element count, or -1 for a nil slice. The count is checked against max
// and against the bytes that are left before anyone allocates for it.
func (r *binReader) count(max, each int) int {
	u := r.uvarint()
	if r.err != nil || u == 0 {
		return -1
	}
	u--
	if u > uint64(max) || u > uint64(len(r.b)/each) {
		r.fail("count %d exceeds the limit %d or the %d bytes left", u, max, len(r.b))
		return -1
	}
	return int(u)
}

func (r *binReader) digest() (d Digest) {
	if r.err != nil {
		return d
	}
	if len(r.b) < DigestSize {
		r.fail("truncated digest")
		return d
	}
	copy(d[:], r.b)
	r.b = r.b[DigestSize:]
	return d
}

func (r *binReader) digests(max int) []Digest {
	n := r.count(max, DigestSize)
	if n < 0 {
		return nil
	}
	ds := make([]Digest, n)
	for i := range ds {
		copy(ds[i][:], r.b[i*DigestSize:])
	}
	r.b = r.b[n*DigestSize:]
	return ds
}

func (r *binReader) bytes() []byte {
	n := r.count(math.MaxInt, 1)
	if n < 0 {
		return nil
	}
	p := append(make([]byte, 0, n), r.b[:n]...)
	r.b = r.b[n:]
	return p
}

// unmarshalAll runs a DecodeBinary over data and rejects trailing bytes.
func unmarshalAll(data []byte, decode func([]byte) ([]byte, error)) error {
	rest, err := decode(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("aolog: malformed binary form: %d trailing bytes", len(rest))
	}
	return nil
}

// ---- BLSSignedHead: uvarint size | digest head | bytes signature ----

// AppendBinary appends the head's binary form to b. The encoder has a
// value receiver because heads travel by value (Tier.HeadBLS, every
// "headbls" handler): both BLSSignedHead and *BLSSignedHead marshal.
func (sh BLSSignedHead) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, sh.Size)
	b = append(b, sh.Head[:]...)
	return appendBytes(b, sh.Signature), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (sh BLSSignedHead) MarshalBinary() ([]byte, error) { return sh.AppendBinary(nil) }

// DecodeBinary decodes a head from the front of data and returns what
// follows it.
func (sh *BLSSignedHead) DecodeBinary(data []byte) ([]byte, error) {
	r := binReader{b: data}
	out := BLSSignedHead{Size: r.uvarint(), Head: r.digest(), Signature: r.bytes()}
	if r.err != nil {
		return nil, r.err
	}
	*sh = out
	return r.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (sh *BLSSignedHead) UnmarshalBinary(data []byte) error {
	return unmarshalAll(data, sh.DecodeBinary)
}

// ---- ShardInclusionProof: int index | int size | int shards |
// digest shard root | digests inner | digests super ----

// AppendBinary appends the proof's binary form to b.
func (p *ShardInclusionProof) AppendBinary(b []byte) ([]byte, error) {
	if p == nil {
		return b, errors.New("aolog: nil inclusion proof has no binary form")
	}
	b = appendInt(b, p.GlobalIndex)
	b = appendInt(b, p.TreeSize)
	b = appendInt(b, p.NumShards)
	b = append(b, p.ShardRoot[:]...)
	b, err := appendDigests(b, "inner path", p.Inner, maxBinaryPath)
	if err != nil {
		return b, err
	}
	return appendDigests(b, "super path", p.Super, maxBinaryPath)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *ShardInclusionProof) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// DecodeBinary decodes a proof from the front of data and returns what
// follows it.
func (p *ShardInclusionProof) DecodeBinary(data []byte) ([]byte, error) {
	r := binReader{b: data}
	out := ShardInclusionProof{
		GlobalIndex: r.int(),
		TreeSize:    r.int(),
		NumShards:   r.int(),
		ShardRoot:   r.digest(),
		Inner:       r.digests(maxBinaryPath),
		Super:       r.digests(maxBinaryPath),
	}
	if r.err != nil {
		return nil, r.err
	}
	*p = out
	return r.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *ShardInclusionProof) UnmarshalBinary(data []byte) error {
	return unmarshalAll(data, p.DecodeBinary)
}

// ---- ConsistencyProof: int old | int new | digests path ----

// AppendBinary appends the proof's binary form to b.
func (p *ConsistencyProof) AppendBinary(b []byte) ([]byte, error) {
	if p == nil {
		return b, errors.New("aolog: nil consistency proof has no binary form")
	}
	b = appendInt(b, p.OldSize)
	b = appendInt(b, p.NewSize)
	return appendDigests(b, "consistency path", p.Path, maxBinaryPath)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *ConsistencyProof) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// DecodeBinary decodes a proof from the front of data and returns what
// follows it.
func (p *ConsistencyProof) DecodeBinary(data []byte) ([]byte, error) {
	r := binReader{b: data}
	out := ConsistencyProof{OldSize: r.int(), NewSize: r.int(), Path: r.digests(maxBinaryPath)}
	if r.err != nil {
		return nil, r.err
	}
	*p = out
	return r.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *ConsistencyProof) UnmarshalBinary(data []byte) error {
	return unmarshalAll(data, p.DecodeBinary)
}

// ---- ShardConsistencyProof: int old | int new | int shards |
// digests old roots | digests new roots | uvarint(len(Shards)+1), then
// per shard one byte — 0: nil, the shard did not grow; 1: a
// ConsistencyProof follows. The nil entries are part of the value:
// wellFormed counts them. ----

// AppendBinary appends the proof's binary form to b.
func (p *ShardConsistencyProof) AppendBinary(b []byte) ([]byte, error) {
	if p == nil {
		return b, errors.New("aolog: nil sharded consistency proof has no binary form")
	}
	b = appendInt(b, p.OldSize)
	b = appendInt(b, p.NewSize)
	b = appendInt(b, p.NumShards)
	b, err := appendDigests(b, "old shard roots", p.OldRoots, maxBinaryShards)
	if err != nil {
		return b, err
	}
	if b, err = appendDigests(b, "new shard roots", p.NewRoots, maxBinaryShards); err != nil {
		return b, err
	}
	if len(p.Shards) > maxBinaryShards {
		return b, fmt.Errorf("aolog: %d shard proofs exceed the binary form's limit %d", len(p.Shards), maxBinaryShards)
	}
	if p.Shards == nil {
		return append(b, 0), nil
	}
	b = binary.AppendUvarint(b, uint64(len(p.Shards))+1)
	for _, sp := range p.Shards {
		if sp == nil {
			b = append(b, 0)
			continue
		}
		if b, err = sp.AppendBinary(append(b, 1)); err != nil {
			return b, err
		}
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *ShardConsistencyProof) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// DecodeBinary decodes a proof from the front of data and returns what
// follows it.
func (p *ShardConsistencyProof) DecodeBinary(data []byte) ([]byte, error) {
	r := binReader{b: data}
	out := ShardConsistencyProof{
		OldSize:   r.int(),
		NewSize:   r.int(),
		NumShards: r.int(),
		OldRoots:  r.digests(maxBinaryShards),
		NewRoots:  r.digests(maxBinaryShards),
	}
	if n := r.count(maxBinaryShards, 1); n >= 0 {
		out.Shards = make([]*ConsistencyProof, n)
		for i := range out.Shards {
			switch r.byte() {
			case 0:
			case 1:
				sp := new(ConsistencyProof)
				if r.b, r.err = sp.DecodeBinary(r.b); r.err == nil {
					out.Shards[i] = sp
				}
			default:
				r.fail("shard %d presence byte is neither 0 nor 1", i)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	*p = out
	return r.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *ShardConsistencyProof) UnmarshalBinary(data []byte) error {
	return unmarshalAll(data, p.DecodeBinary)
}
