package aolog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// ShardedLog stripes an append-only log across K independent MerkleLogs so
// heavy append traffic spreads over K smaller trees (and, behind a lock per
// shard in a server, over K writers). Entry with global index g lives in
// shard g mod K at local index g div K, so the global order is recoverable
// and every shard grows append-only.
//
// The log commits to its full state with a super-root: the RFC 6962 tree
// hash over K shard leaves, where shard j's leaf is
// H(0x03 || j || size_j || root_j). Committing the sizes (not just the
// roots) makes a signed super-root equivocation-evident exactly like a
// signed single-tree root: two super-roots for the same total size that
// differ anywhere are a fork. The zero value is not usable; call
// NewShardedLog. Like MerkleLog, not safe for concurrent use, its read
// methods included: callers hold an exclusive lock.
type ShardedLog struct {
	shards []*MerkleLog
	n      int
	leaves []Digest // the K super-tree leaves being hashed or walked; reused
}

// NewShardedLog creates a sharded log with k >= 1 stripes.
func NewShardedLog(k int) (*ShardedLog, error) {
	if k < 1 {
		return nil, fmt.Errorf("aolog: shard count %d out of range", k)
	}
	s := &ShardedLog{shards: make([]*MerkleLog, k), leaves: make([]Digest, k)}
	for i := range s.shards {
		s.shards[i] = &MerkleLog{}
	}
	return s, nil
}

// OpenShardedLog rebuilds a sharded log from leaves recovered from
// storage, in global order (internal/store hands them over in exactly
// this form). digests, when non-nil, carries the cached leaf hashes of
// a prefix of the leaves (from a storage snapshot); those leaves skip
// rehashing and the remainder is hashed normally. The leaf slices are
// taken over without copying — the caller must not mutate them.
func OpenShardedLog(k int, leaves [][]byte, digests []Digest) (*ShardedLog, error) {
	s, err := NewShardedLog(k)
	if err != nil {
		return nil, err
	}
	if len(digests) > len(leaves) {
		return nil, fmt.Errorf("aolog: %d cached digests for %d leaves", len(digests), len(leaves))
	}
	for g, p := range leaves {
		var d Digest
		if g < len(digests) {
			d = digests[g]
		} else {
			d = leafHash(p)
		}
		s.shards[g%k].appendOwned(p, d)
		s.n++
	}
	return s, nil
}

// LeafDigests returns the cached leaf hashes of the first n entries in
// global order — what a storage snapshot persists so reopening the log
// skips rehashing every payload.
func (s *ShardedLog) LeafDigests(n int) ([]Digest, error) {
	if n < 0 || n > s.n {
		return nil, fmt.Errorf("aolog: sharded size %d out of range", n)
	}
	k := len(s.shards)
	out := make([]Digest, n)
	for g := 0; g < n; g++ {
		out[g] = s.shards[g%k].leafDigest(g / k)
	}
	return out, nil
}

// NumShards returns K.
func (s *ShardedLog) NumShards() int { return len(s.shards) }

// Len returns the total number of entries across all shards.
func (s *ShardedLog) Len() int { return s.n }

// shardOf maps a global index to (shard, local index).
func (s *ShardedLog) shardOf(g int) (int, int) {
	k := len(s.shards)
	return g % k, g / k
}

// shardLen returns the size of shard j when the log holds n entries total.
func shardLen(n, j, k int) int {
	if n <= j {
		return 0
	}
	return (n - j + k - 1) / k
}

// Append adds one entry and returns its global index.
func (s *ShardedLog) Append(payload []byte) int {
	g := s.n
	shard, _ := s.shardOf(g)
	s.shards[shard].Append(payload)
	s.n++
	return g
}

// AppendBatch appends payloads in order and returns the global index of the
// first. Entries land on consecutive shards, so a batch of B >= K entries
// touches every shard once per round instead of rehashing one big tree B
// times.
func (s *ShardedLog) AppendBatch(payloads [][]byte) int {
	first := s.n
	for _, p := range payloads {
		s.Append(p)
	}
	return first
}

// Entry returns a copy of the payload at global index g.
func (s *ShardedLog) Entry(g int) ([]byte, error) {
	if g < 0 || g >= s.n {
		return nil, fmt.Errorf("aolog: entry index %d out of range", g)
	}
	shard, local := s.shardOf(g)
	return s.shards[shard].Entry(local)
}

// EntryView returns the payload at global index g without copying it.
// The slice is the log's own: the caller may keep it but never writes
// to it. A proof server passes it straight into its reply.
func (s *ShardedLog) EntryView(g int) ([]byte, error) {
	if g < 0 || g >= s.n {
		return nil, fmt.Errorf("aolog: entry index %d out of range", g)
	}
	shard, local := s.shardOf(g)
	return s.shards[shard].raw[local], nil
}

// shardLeaf is the super-tree leaf committing to one shard's state: the
// leaf hash of 0x03 || j || size || root, that is
// H(0x00 || 0x03 || j || size || root), hashed from a stack array.
func shardLeaf(j int, size uint64, root Digest) Digest {
	var b [2 + 4 + 8 + DigestSize]byte
	b[0], b[1] = 0x00, 0x03
	binary.BigEndian.PutUint32(b[2:], uint32(j))
	binary.BigEndian.PutUint64(b[6:], size)
	copy(b[14:], root[:])
	return sha256.Sum256(b[:])
}

// superLeaf returns m's super-tree leaf at shard size n, m being shard j
// of a ShardedLog, hashing it only the first time it is asked for: like
// a prefix root, a leaf at a past size never changes. The memo sits
// beside m.roots, one digest per leaf at most; only proofs at past sizes
// fill it (superLeavesAt).
func (m *MerkleLog) superLeaf(j, n int) Digest {
	if n == 0 {
		return shardLeaf(j, 0, leafEmptyRoot())
	}
	if n > len(m.superLeaves) {
		m.superLeaves = slices.Grow(m.superLeaves, n-len(m.superLeaves))[:n]
	}
	if l := m.superLeaves[n-1]; l != (Digest{}) {
		return l
	}
	l := shardLeaf(j, uint64(n), m.prefixRoot(n))
	m.superLeaves[n-1] = l
	return l
}

// superLeavesAt returns every shard's super-tree leaf at total size n
// (n <= Len) in s.leaves, which the next call overwrites. Leaves at a
// past size come from the memo; the head's are hashed afresh, so a log
// whose heads are signed but whose past sizes are never proved keeps no
// memo.
func (s *ShardedLog) superLeavesAt(n int) []Digest {
	k := len(s.shards)
	for j, sh := range s.shards {
		sz := shardLen(n, j, k)
		if n == s.n {
			s.leaves[j] = shardLeaf(j, uint64(sz), sh.prefixRoot(sz))
		} else {
			s.leaves[j] = sh.superLeaf(j, sz)
		}
	}
	return s.leaves
}

// superRootOf computes the super-root for total size n from shard roots.
func superRootOf(n, k int, roots []Digest) Digest {
	leaves := make([]Digest, k)
	for j := 0; j < k; j++ {
		leaves[j] = shardLeaf(j, uint64(shardLen(n, j, k)), roots[j])
	}
	return subtreeRoot(leaves)
}

// SuperRoot returns the commitment to the entire sharded log.
func (s *ShardedLog) SuperRoot() Digest {
	return s.superRootAt(s.n)
}

// SuperRootAt returns the super-root as of the first n entries.
func (s *ShardedLog) SuperRootAt(n int) (Digest, error) {
	if n < 0 || n > s.n {
		return Digest{}, fmt.Errorf("aolog: sharded size %d out of range", n)
	}
	return s.superRootAt(n), nil
}

func (s *ShardedLog) superRootAt(n int) Digest {
	return subtreeRoot(s.superLeavesAt(n))
}

// pathBound is the longest RFC 6962 audit path in a tree of n leaves.
func pathBound(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// ShardInclusionProof proves a payload is at global index GlobalIndex in
// the sharded log of total size TreeSize: an RFC 6962 audit path inside the
// entry's shard, then an audit path for that shard's leaf in the super
// tree. All shard geometry (which shard, its size, the super-tree shape)
// is recomputed by the verifier from GlobalIndex, TreeSize, and NumShards.
type ShardInclusionProof struct {
	GlobalIndex int
	TreeSize    int
	NumShards   int
	ShardRoot   Digest   // root of the entry's shard at the proven size
	Inner       []Digest // audit path within the shard
	Super       []Digest // audit path of the shard leaf in the super tree
}

// ProveInclusionAt proves inclusion of the entry at global index g against
// the super-root at total size n.
func (s *ShardedLog) ProveInclusionAt(g, n int) (*ShardInclusionProof, error) {
	if n < 1 || n > s.n {
		return nil, fmt.Errorf("aolog: sharded size %d out of range", n)
	}
	if g < 0 || g >= n {
		return nil, fmt.Errorf("aolog: global index %d out of range for size %d", g, n)
	}
	k := len(s.shards)
	shard, local := s.shardOf(g)
	sz := shardLen(n, shard, k)
	leaves := s.superLeavesAt(n)
	p := &ShardInclusionProof{
		GlobalIndex: g,
		TreeSize:    n,
		NumShards:   k,
		ShardRoot:   s.shards[shard].prefixRoot(sz),
	}
	// Both paths share one array; each is capped at its own bound, and a
	// path that is empty stays nil, as the binary form tells them apart.
	ni, ns := pathBound(sz), pathBound(k)
	buf := make([]Digest, ni+ns)
	if ni > 0 {
		p.Inner = s.shards[shard].appendInclusionPath(buf[:0:ni], 0, sz, local)
	}
	if ns > 0 {
		p.Super = appendSuperPath(buf[ni:ni], leaves, shard)
	}
	return p, nil
}

func appendSuperPath(path, leaves []Digest, i int) []Digest {
	if len(leaves) <= 1 {
		return path
	}
	k := largestPowerOfTwoBelow(len(leaves))
	if i < k {
		return append(appendSuperPath(path, leaves[:k], i), subtreeRoot(leaves[k:]))
	}
	return append(appendSuperPath(path, leaves[k:], i-k), subtreeRoot(leaves[:k]))
}

// VerifyShardInclusion checks a sharded inclusion proof against a
// super-root.
func VerifyShardInclusion(payload []byte, proof *ShardInclusionProof, superRoot Digest) bool {
	if proof == nil || proof.NumShards < 1 ||
		proof.GlobalIndex < 0 || proof.GlobalIndex >= proof.TreeSize {
		return false
	}
	k := proof.NumShards
	shard := proof.GlobalIndex % k
	local := proof.GlobalIndex / k
	sz := shardLen(proof.TreeSize, shard, k)
	// Leaf -> shard root.
	got, ok := inclusionRoot(leafHash(payload), local, sz, proof.Inner)
	if !ok || got != proof.ShardRoot {
		return false
	}
	// Shard leaf -> super-root.
	sl := shardLeaf(shard, uint64(sz), proof.ShardRoot)
	gotSuper, ok := inclusionRoot(sl, shard, k, proof.Super)
	return ok && gotSuper == superRoot
}

// ShardConsistencyProof proves the sharded log at total size NewSize
// extends the log at total size OldSize: the verifier recomputes both
// super-roots from the per-shard roots and checks a per-shard RFC 6962
// consistency proof wherever a shard grew.
type ShardConsistencyProof struct {
	OldSize, NewSize int
	NumShards        int
	OldRoots         []Digest            // shard roots at OldSize
	NewRoots         []Digest            // shard roots at NewSize
	Shards           []*ConsistencyProof // nil for shards that did not grow
}

// wellFormed checks the proof's geometry fields without touching hashes.
func (p *ShardConsistencyProof) wellFormed() bool {
	return p != nil && p.NumShards >= 1 &&
		p.OldSize >= 0 && p.NewSize >= p.OldSize &&
		len(p.OldRoots) == p.NumShards && len(p.NewRoots) == p.NumShards &&
		len(p.Shards) == p.NumShards
}

// OldSuperRoot reconstructs the old super-root this proof's per-shard
// roots commit to. Together with VerifyShardConsistency this makes a
// consistency proof usable as *evidence*: a proof that is valid against
// its own old super-root but whose OldSuperRoot differs from a head the
// log operator signed for the same size convicts the operator of forking
// (see gossip.EquivocationProof).
func (p *ShardConsistencyProof) OldSuperRoot() (Digest, error) {
	if !p.wellFormed() {
		return Digest{}, errors.New("aolog: malformed sharded consistency proof")
	}
	return superRootOf(p.OldSize, p.NumShards, p.OldRoots), nil
}

// ProveConsistencyBetween builds a consistency proof between total sizes.
func (s *ShardedLog) ProveConsistencyBetween(n0, n1 int) (*ShardConsistencyProof, error) {
	if n0 < 0 || n1 < n0 || n1 > s.n {
		return nil, fmt.Errorf("aolog: invalid sharded consistency range %d..%d", n0, n1)
	}
	k := len(s.shards)
	// Both root lists and every grown shard's path share one array, each
	// path capped at its bound: one digest per level of the RFC 6962
	// recursion plus the base case's.
	size, grown := 2*k, 0
	for j := 0; j < k; j++ {
		if oldLen, newLen := shardLen(n0, j, k), shardLen(n1, j, k); oldLen != 0 && oldLen != newLen {
			size += pathBound(newLen) + 1
			grown++
		}
	}
	buf := make([]Digest, size)
	paths := make([]ConsistencyProof, grown)
	proof := &ShardConsistencyProof{
		OldSize:   n0,
		NewSize:   n1,
		NumShards: k,
		OldRoots:  buf[:k:k],
		NewRoots:  buf[k : 2*k : 2*k],
		Shards:    make([]*ConsistencyProof, k),
	}
	off, next := 2*k, 0
	for j, sh := range s.shards {
		oldLen, newLen := shardLen(n0, j, k), shardLen(n1, j, k)
		proof.OldRoots[j], proof.NewRoots[j] = sh.prefixRoot(oldLen), sh.prefixRoot(newLen)
		if oldLen == 0 || oldLen == newLen {
			continue // empty-prefix or unchanged: root equality suffices
		}
		end := off + pathBound(newLen) + 1
		p := &paths[next]
		*p = ConsistencyProof{OldSize: oldLen, NewSize: newLen, Path: sh.appendConsistencyPath(buf[off:off:end], 0, newLen, oldLen, true)}
		proof.Shards[j] = p
		off, next = end, next+1
	}
	return proof, nil
}

// VerifyShardConsistency checks that newSuper's log extends oldSuper's.
func VerifyShardConsistency(oldSuper, newSuper Digest, proof *ShardConsistencyProof) bool {
	if proof == nil || proof.NumShards < 1 ||
		proof.OldSize < 0 || proof.NewSize < proof.OldSize {
		return false
	}
	k := proof.NumShards
	if len(proof.OldRoots) != k || len(proof.NewRoots) != k || len(proof.Shards) != k {
		return false
	}
	if superRootOf(proof.OldSize, k, proof.OldRoots) != oldSuper {
		return false
	}
	if superRootOf(proof.NewSize, k, proof.NewRoots) != newSuper {
		return false
	}
	for j := 0; j < k; j++ {
		oldLen, newLen := shardLen(proof.OldSize, j, k), shardLen(proof.NewSize, j, k)
		switch {
		case oldLen == 0:
			// An empty prefix is consistent with anything, but the claimed
			// old root must really be the empty root.
			if proof.OldRoots[j] != leafEmptyRoot() || proof.Shards[j] != nil {
				return false
			}
		case oldLen == newLen:
			if proof.OldRoots[j] != proof.NewRoots[j] || proof.Shards[j] != nil {
				return false
			}
		default:
			p := proof.Shards[j]
			if p == nil || p.OldSize != oldLen || p.NewSize != newLen {
				return false
			}
			if !VerifyConsistency(proof.OldRoots[j], proof.NewRoots[j], p) {
				return false
			}
		}
	}
	return true
}
