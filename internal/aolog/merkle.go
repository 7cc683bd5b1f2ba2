package aolog

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"slices"
)

// MerkleLog is an append-only Merkle tree over entry payloads in the style
// of RFC 6962 (Certificate Transparency): it supports inclusion proofs
// ("entry i is in the tree of size n") and consistency proofs ("the tree of
// size m is a prefix of the tree of size n"). The zero value is an empty
// log.
//
// Not safe for concurrent use, read methods included: Root and the
// proofs write the prefix-root memo below, so callers hold an exclusive
// lock around every call, never a shared read lock.
//
// The tree is stored incrementally: levels[h][i] caches the root of the
// complete subtree over leaves [i*2^h, (i+1)*2^h), so Append does O(1)
// amortized hashing and root and proof generation cost O(log n) instead
// of rehashing all n leaves (the seed behavior, preserved as RecomputeRoot
// for tests). On top of that, roots[n-1] remembers the root of the first
// n leaves once it has been computed: a log is append-only, so a root at
// a past size never changes, and every later call at that size is one
// lookup.
type MerkleLog struct {
	raw    [][]byte
	levels [][]Digest // levels[0] = leaf hashes; levels[h][i] covers leaves [i<<h, (i+1)<<h)
	roots  []Digest   // roots[n-1] = root of the first n leaves; zero = not computed yet
	// superLeaves[n-1] is, when this log is a ShardedLog's shard, its
	// super-tree leaf at size n (superLeaf); zero = not computed yet.
	superLeaves []Digest
}

// Len returns the number of leaves.
func (m *MerkleLog) Len() int {
	if len(m.levels) == 0 {
		return 0
	}
	return len(m.levels[0])
}

// Append adds an entry payload and returns its index.
func (m *MerkleLog) Append(payload []byte) int {
	cp := append([]byte{}, payload...)
	m.raw = append(m.raw, cp)
	m.push(0, leafHash(cp))
	return m.Len() - 1
}

// appendOwned appends a payload the caller owns (no defensive copy)
// whose leaf digest is already known. Recovery paths use it to rebuild
// a log from storage without rehashing payloads; d must equal
// leafHash(payload) or every proof the log serves is garbage, so only
// digests that were derived from these same payloads (and are
// integrity-checked on disk) may be passed.
func (m *MerkleLog) appendOwned(payload []byte, d Digest) {
	m.raw = append(m.raw, payload)
	m.push(0, d)
}

// leafDigest returns the cached leaf hash at index i (i < Len).
func (m *MerkleLog) leafDigest(i int) Digest {
	return m.levels[0][i]
}

// push inserts a node at level h, pairing complete siblings upward.
func (m *MerkleLog) push(h int, d Digest) {
	if h == len(m.levels) {
		m.levels = append(m.levels, nil)
	}
	m.levels[h] = append(m.levels[h], d)
	if n := len(m.levels[h]); n%2 == 0 {
		m.push(h+1, nodeHash(m.levels[h][n-2], m.levels[h][n-1]))
	}
}

// Root returns the Merkle root of the current tree. The empty tree has the
// hash of the empty string as root (RFC 6962 §2.1).
func (m *MerkleLog) Root() Digest {
	return m.prefixRoot(m.Len())
}

// prefixRoot returns the root of the first n leaves (0 <= n <= Len),
// hashing it only the first time it is asked for. A root that really is
// all zeros reads as "not computed" and is merely recomputed. The memo
// holds at most one digest per leaf; it grows like an appended slice, so
// a head signed after every append costs amortized O(1) here, not a copy.
func (m *MerkleLog) prefixRoot(n int) Digest {
	if n == 0 {
		return leafEmptyRoot()
	}
	if n > len(m.roots) {
		// Never written past its length, so the new tail is all zeros.
		m.roots = slices.Grow(m.roots, n-len(m.roots))[:n]
	}
	if r := m.roots[n-1]; r != (Digest{}) {
		return r
	}
	r := m.rangeRoot(0, n)
	m.roots[n-1] = r
	return r
}

// Entry returns the raw payload at index i.
func (m *MerkleLog) Entry(i int) ([]byte, error) {
	if i < 0 || i >= len(m.raw) {
		return nil, fmt.Errorf("aolog: entry index %d out of range", i)
	}
	return append([]byte{}, m.raw[i]...), nil
}

// rangeRoot computes the RFC 6962 subtree hash over leaves [lo, hi). Ranges
// reached by the RFC recursion are aligned, so the complete-subtree cache
// answers each left branch in O(1) and only the right spine recurses.
func (m *MerkleLog) rangeRoot(lo, hi int) Digest {
	size := hi - lo
	if size <= 0 {
		return leafEmptyRoot()
	}
	if size&(size-1) == 0 && lo%size == 0 {
		h := bits.TrailingZeros(uint(size))
		return m.levels[h][lo>>h]
	}
	k := largestPowerOfTwoBelow(size)
	return nodeHash(m.rangeRoot(lo, lo+k), m.rangeRoot(lo+k, hi))
}

// LeafDigest returns the RFC 6962 leaf hash of a payload.
func LeafDigest(payload []byte) Digest { return leafHash(payload) }

// RootOfLeaves computes the tree hash over precomputed leaf digests with
// no interior-node caching — exactly the seed implementation's per-Root()
// cost (it cached leaf hashes but recomputed every interior node). Kept so
// benchmarks can measure the before/after honestly.
func RootOfLeaves(leaves []Digest) Digest { return subtreeRoot(leaves) }

// subtreeRoot computes the RFC 6962 Merkle tree hash of the given leaves.
func subtreeRoot(leaves []Digest) Digest {
	switch len(leaves) {
	case 0:
		return leafEmptyRoot()
	case 1:
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(len(leaves))
	return nodeHash(subtreeRoot(leaves[:k]), subtreeRoot(leaves[k:]))
}

func leafEmptyRoot() Digest {
	// SHA-256 of the empty string.
	return leafEmpty
}

var leafEmpty = func() Digest {
	var d Digest
	h := sha256.New()
	copy(d[:], h.Sum(nil))
	return d
}()

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n (n >= 2).
func largestPowerOfTwoBelow(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// InclusionProof is an audit path proving a leaf is in a tree of a given
// size.
type InclusionProof struct {
	LeafIndex int
	TreeSize  int
	Path      []Digest
}

// ProveInclusion builds the audit path for leaf i in the tree of size n.
func (m *MerkleLog) ProveInclusion(i, n int) (*InclusionProof, error) {
	if n < 1 || n > m.Len() {
		return nil, fmt.Errorf("aolog: tree size %d out of range", n)
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("aolog: leaf index %d out of range for size %d", i, n)
	}
	return &InclusionProof{LeafIndex: i, TreeSize: n, Path: m.inclusionPath(n, i)}, nil
}

// inclusionPath returns the audit path for leaf i in the tree of size n
// in one allocation: no path is longer than the tree is deep.
func (m *MerkleLog) inclusionPath(n, i int) []Digest {
	if n <= 1 {
		return nil
	}
	return m.appendInclusionPath(make([]Digest, 0, bits.Len(uint(n-1))), 0, n, i)
}

func (m *MerkleLog) appendInclusionPath(path []Digest, lo, hi, i int) []Digest {
	if hi-lo <= 1 {
		return path
	}
	k := largestPowerOfTwoBelow(hi - lo)
	if i < lo+k {
		return append(m.appendInclusionPath(path, lo, lo+k, i), m.rangeRoot(lo+k, hi))
	}
	return append(m.appendInclusionPath(path, lo+k, hi, i), m.rangeRoot(lo, lo+k))
}

// VerifyInclusion checks an inclusion proof for entry payload against root.
func VerifyInclusion(payload []byte, proof *InclusionProof, root Digest) bool {
	if proof == nil || proof.LeafIndex < 0 || proof.LeafIndex >= proof.TreeSize {
		return false
	}
	h := leafHash(payload)
	got, ok := inclusionRoot(h, proof.LeafIndex, proof.TreeSize, proof.Path)
	return ok && got == root
}

// inclusionRoot mirrors inclusionPath: the prover appends siblings on the
// way out of the recursion, so the verifier consumes them from the end.
func inclusionRoot(h Digest, idx, size int, path []Digest) (Digest, bool) {
	if size == 1 {
		if len(path) != 0 {
			return Digest{}, false
		}
		return h, true
	}
	if len(path) == 0 {
		return Digest{}, false
	}
	sib := path[len(path)-1]
	rest := path[:len(path)-1]
	k := largestPowerOfTwoBelow(size)
	if idx < k {
		sub, ok := inclusionRoot(h, idx, k, rest)
		if !ok {
			return Digest{}, false
		}
		return nodeHash(sub, sib), true
	}
	sub, ok := inclusionRoot(h, idx-k, size-k, rest)
	if !ok {
		return Digest{}, false
	}
	return nodeHash(sib, sub), true
}

// ConsistencyProof proves that the tree of size OldSize is a prefix of the
// tree of size NewSize.
type ConsistencyProof struct {
	OldSize, NewSize int
	Path             []Digest
}

// appendConsistencyPath follows RFC 6962 §2.1.2 over the range [lo, hi),
// with m0 relative to lo, appending to path. flag indicates whether the
// old subtree is still a "complete" node of the current traversal.
func (m *MerkleLog) appendConsistencyPath(path []Digest, lo, hi, m0 int, flag bool) []Digest {
	n := hi - lo
	if m0 == n {
		if flag {
			return path
		}
		return append(path, m.rangeRoot(lo, hi))
	}
	k := largestPowerOfTwoBelow(n)
	if m0 <= k {
		return append(m.appendConsistencyPath(path, lo, lo+k, m0, flag), m.rangeRoot(lo+k, hi))
	}
	return append(m.appendConsistencyPath(path, lo+k, hi, m0-k, false), m.rangeRoot(lo, lo+k))
}

// VerifyConsistency checks that newRoot's tree extends oldRoot's tree.
func VerifyConsistency(oldRoot, newRoot Digest, proof *ConsistencyProof) bool {
	if proof == nil || proof.OldSize < 1 || proof.NewSize < proof.OldSize {
		return false
	}
	if proof.OldSize == proof.NewSize {
		return oldRoot == newRoot && len(proof.Path) == 0
	}
	// Reconstruct both roots from the proof, mirroring consistencyPath.
	or, nr, ok := runConsistency(proof.NewSize, proof.OldSize, true, proof.Path, oldRoot)
	return ok && or == oldRoot && nr == newRoot
}

// runConsistency replays the recursion of consistencyPath, consuming the
// proof path from the end (the recursion appends on the way out).
func runConsistency(n, m0 int, flag bool, path []Digest, oldRoot Digest) (Digest, Digest, bool) {
	if m0 == n {
		if flag {
			// Old subtree root is known to the verifier.
			return oldRoot, oldRoot, true
		}
		if len(path) != 1 {
			return Digest{}, Digest{}, false
		}
		return path[0], path[0], true
	}
	if len(path) == 0 {
		return Digest{}, Digest{}, false
	}
	sib := path[len(path)-1]
	rest := path[:len(path)-1]
	k := largestPowerOfTwoBelow(n)
	if m0 <= k {
		or, nr, ok := runConsistency(k, m0, flag, rest, oldRoot)
		if !ok {
			return Digest{}, Digest{}, false
		}
		// Old tree does not include the right sibling when m0 == k is false;
		// per RFC 6962 the old root only includes it if m0 == k... old root
		// never includes leaves beyond m0, and m0 <= k here, so:
		return or, nodeHash(nr, sib), true
	}
	or, nr, ok := runConsistency(n-k, m0-k, false, rest, oldRoot)
	if !ok {
		return Digest{}, Digest{}, false
	}
	return nodeHash(sib, or), nodeHash(sib, nr), true
}
