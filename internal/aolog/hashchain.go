// Package aolog implements the paper's second building block: append-only
// logs. It provides three structures:
//
//   - HashChain: the per-TEE log of code digests prescribed by §4.1
//     ("implemented at each TEE as a hash chain"). Appending is O(1); the
//     chain head commits to the entire history, so two signed heads that
//     disagree at the same height are a publicly verifiable proof of
//     equivocation.
//   - MerkleLog: an RFC-6962-style Merkle tree with inclusion and
//     consistency proofs, the certificate-transparency-inspired public
//     auditability layer (§1, §4.1). Interior nodes are cached
//     incrementally, so appends cost O(1) amortized hashing and
//     roots/proofs cost O(log n) — the hot path of a log that serves a
//     signed tree head per ingest (DESIGN.md §3) — and the root at a
//     size already computed is one lookup.
//   - ShardedLog: a MerkleLog striped across K shards for heavy append
//     traffic, committed to by a super-root over (shard, size, root)
//     leaves, with inclusion and consistency proofs that work across
//     shard boundaries.
//
// Log states are signed as BLSSignedHead, so a head and the witness
// cosignatures over it verify in a single multi-pairing (bls.VerifyBatch,
// gossip.VerifyCosignedHead).
//
// OWNS: every hash a log commits to (leaf, node, chain and shard-leaf
// hashes) and the byte layout of heads and proofs, JSON and binary; the
// complete-subtree cache and the prefix-root memo (MerkleLog.roots: the
// root at every size Root has computed, one digest per leaf
// at most, never evicted); the sharded geometry and its super-root.
//
// MUST NOT DO: lock anything. A MerkleLog or ShardedLog is not safe for
// concurrent use, its read methods included (Root, SuperRoot,
// SuperRootAt and ShardedLog's Prove* write the prefix-root memo), so a
// caller holds an exclusive lock around every call, never a shared read
// lock (monitor under its mu, pkidir under its mu). Also: persist or do
// I/O (storage is internal/store); hold a key (SignHeadBLS signs with
// the one its caller passes); answer a different root at a size it has
// answered before.
//
// MUST NOT import: any repro/internal package except bls.
package aolog

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// DigestSize is the size of all log hashes.
const DigestSize = sha256.Size

// Digest is a SHA-256 output.
type Digest = [DigestSize]byte

// Entry is one record in a log: an opaque payload (for the framework, a
// serialized code-update record).
type Entry struct {
	Payload []byte
}

// leafHash domain-separates leaves from interior nodes (RFC 6962 style).
// The fixed-size hashes below fill a stack array and call sha256.Sum256,
// this one sums into its result: none of them allocates.
func leafHash(payload []byte) Digest {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(payload)
	var d Digest
	h.Sum(d[:0])
	return d
}

// nodeHash hashes two children with interior-node domain separation.
func nodeHash(l, r Digest) Digest {
	var b [1 + 2*DigestSize]byte
	b[0] = 0x01
	copy(b[1:], l[:])
	copy(b[1+DigestSize:], r[:])
	return sha256.Sum256(b[:])
}

// chainHash computes head_{i+1} = H(0x02 || head_i || i || leafHash(e)).
func chainHash(prev Digest, index uint64, leaf Digest) Digest {
	var b [1 + DigestSize + 8 + DigestSize]byte
	b[0] = 0x02
	copy(b[1:], prev[:])
	binary.BigEndian.PutUint64(b[1+DigestSize:], index)
	copy(b[1+DigestSize+8:], leaf[:])
	return sha256.Sum256(b[:])
}

// HashChain is an append-only hash chain. The zero value is an empty chain.
// Not safe for concurrent use; callers synchronize.
type HashChain struct {
	entries []Entry
	heads   []Digest // heads[i] = head after appending entry i
}

// Len returns the number of entries.
func (c *HashChain) Len() int { return len(c.entries) }

// Head returns the current chain head. The empty chain has the zero head.
func (c *HashChain) Head() Digest {
	if len(c.heads) == 0 {
		return Digest{}
	}
	return c.heads[len(c.heads)-1]
}

// Append adds an entry and returns the new head.
func (c *HashChain) Append(payload []byte) Digest {
	cp := append([]byte{}, payload...)
	leaf := leafHash(cp)
	head := chainHash(c.Head(), uint64(len(c.entries)), leaf)
	c.entries = append(c.entries, Entry{Payload: cp})
	c.heads = append(c.heads, head)
	return head
}

// Entries returns a copy of all entry payloads.
func (c *HashChain) Entries() [][]byte {
	out := make([][]byte, len(c.entries))
	for i, e := range c.entries {
		out[i] = append([]byte{}, e.Payload...)
	}
	return out
}

// Entry returns the payload at index i.
func (c *HashChain) Entry(i int) ([]byte, error) {
	if i < 0 || i >= len(c.entries) {
		return nil, fmt.Errorf("aolog: entry index %d out of range", i)
	}
	return append([]byte{}, c.entries[i].Payload...), nil
}

// VerifyChain recomputes the chain over payloads and reports whether the
// final head matches want. It is the client-side audit of a full history.
func VerifyChain(payloads [][]byte, want Digest) bool {
	head := Digest{}
	for i, p := range payloads {
		head = chainHash(head, uint64(i), leafHash(p))
	}
	return head == want
}

// VerifyExtension reports whether a chain with head oldHead after oldLen
// entries extends to newHead after appending the given payloads. Used by
// clients that cached an earlier head and fetch only the suffix.
func VerifyExtension(oldHead Digest, oldLen int, suffix [][]byte, newHead Digest) bool {
	if oldLen < 0 {
		return false
	}
	head := oldHead
	for i, p := range suffix {
		head = chainHash(head, uint64(oldLen+i), leafHash(p))
	}
	return head == newHead
}
