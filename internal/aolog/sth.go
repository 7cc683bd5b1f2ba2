package aolog

import "encoding/binary"

// HeadMessage returns the canonical byte string a signed head covers.
// It is exported so callers can mix head signatures with other signatures
// of their own (e.g. witness cosignatures) in one bls.VerifyBatch call.
func HeadMessage(size uint64, head Digest) []byte {
	return headMessage(size, head)
}

// headMessage is the canonical byte string covered by the signature.
func headMessage(size uint64, head Digest) []byte {
	buf := make([]byte, 0, 8+8+DigestSize)
	buf = append(buf, []byte("aolog-sth-v1")...)
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], size)
	buf = append(buf, sz[:]...)
	buf = append(buf, head[:]...)
	return buf
}
