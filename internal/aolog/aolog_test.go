package aolog

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestHashChainBasics(t *testing.T) {
	var c HashChain
	if c.Len() != 0 {
		t.Fatal("empty chain has entries")
	}
	if c.Head() != (Digest{}) {
		t.Fatal("empty chain head must be zero")
	}
	h1 := c.Append([]byte("v1"))
	h2 := c.Append([]byte("v2"))
	if h1 == h2 {
		t.Fatal("heads must differ")
	}
	if c.Head() != h2 {
		t.Fatal("head not updated")
	}
}

func TestHashChainVerify(t *testing.T) {
	var c HashChain
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	for _, p := range payloads {
		c.Append(p)
	}
	if !VerifyChain(c.Entries(), c.Head()) {
		t.Fatal("honest chain rejected")
	}
	// Any mutation breaks verification.
	tampered := c.Entries()
	tampered[1] = []byte("B")
	if VerifyChain(tampered, c.Head()) {
		t.Fatal("tampered history accepted")
	}
	// Reordering breaks verification.
	reordered := c.Entries()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if VerifyChain(reordered, c.Head()) {
		t.Fatal("reordered history accepted")
	}
	// Truncation breaks verification.
	if VerifyChain(c.Entries()[:2], c.Head()) {
		t.Fatal("truncated history accepted")
	}
}

func TestHashChainExtension(t *testing.T) {
	var c HashChain
	c.Append([]byte("a"))
	oldHead := c.Head()
	c.Append([]byte("b"))
	c.Append([]byte("c"))
	suffix := c.Entries()[1:]
	if !VerifyExtension(oldHead, 1, suffix, c.Head()) {
		t.Fatal("honest extension rejected")
	}
	if VerifyExtension(oldHead, 1, [][]byte{[]byte("x"), []byte("c")}, c.Head()) {
		t.Fatal("forged extension accepted")
	}
	// Wrong base offset must fail: indexes are bound into the chain.
	if VerifyExtension(oldHead, 2, suffix, c.Head()) {
		t.Fatal("wrong offset accepted")
	}
}

func TestHashChainEntryAccess(t *testing.T) {
	var c HashChain
	c.Append([]byte("only"))
	p, err := c.Entry(0)
	if err != nil || string(p) != "only" {
		t.Fatal("Entry(0) wrong")
	}
	if _, err := c.Entry(1); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestMerkleInclusionAllSizes(t *testing.T) {
	var m MerkleLog
	const maxN = 33 // crosses several power-of-two boundaries
	for n := 1; n <= maxN; n++ {
		m.Append([]byte(fmt.Sprintf("entry-%d", n-1)))
		root := m.Root()
		for i := 0; i < n; i++ {
			proof, err := m.ProveInclusion(i, n)
			if err != nil {
				t.Fatal(err)
			}
			payload, _ := m.Entry(i)
			if !VerifyInclusion(payload, proof, root) {
				t.Fatalf("inclusion proof failed for i=%d n=%d", i, n)
			}
			if VerifyInclusion([]byte("forged"), proof, root) {
				t.Fatalf("forged payload accepted for i=%d n=%d", i, n)
			}
		}
	}
}

func TestMerkleConsistencyAllSizes(t *testing.T) {
	var m MerkleLog
	const maxN = 20
	roots := make([]Digest, maxN+1)
	for n := 1; n <= maxN; n++ {
		m.Append([]byte(fmt.Sprintf("entry-%d", n-1)))
		roots[n] = m.Root()
	}
	for oldN := 1; oldN <= maxN; oldN++ {
		for newN := oldN; newN <= maxN; newN++ {
			proof, err := m.ProveConsistency(oldN, newN)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyConsistency(roots[oldN], roots[newN], proof) {
				t.Fatalf("consistency proof failed %d -> %d", oldN, newN)
			}
			// Wrong old root must be rejected.
			var bad Digest
			bad[0] = 0xff
			if VerifyConsistency(bad, roots[newN], proof) {
				t.Fatalf("wrong old root accepted %d -> %d", oldN, newN)
			}
		}
	}
}

func TestMerkleForkDetected(t *testing.T) {
	// Two logs agree on a prefix then diverge; consistency proof from the
	// forked log against the honest old root must fail.
	var honest, fork MerkleLog
	for i := 0; i < 8; i++ {
		p := []byte(fmt.Sprintf("e%d", i))
		honest.Append(p)
		if i == 3 {
			p = []byte("rewritten") // fork's history diverges at entry 3
		}
		fork.Append(p)
	}
	oldRoot := honest.Root()
	honest.Append([]byte("honest-9"))
	fork.Append([]byte("fork-9"))
	proof, err := fork.ProveConsistency(8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyConsistency(oldRoot, fork.Root(), proof) {
		t.Fatal("forked log passed consistency check")
	}
}

func TestMerkleEdgeCases(t *testing.T) {
	var m MerkleLog
	if _, err := m.ProveInclusion(0, 1); err == nil {
		t.Fatal("inclusion proof on empty tree accepted")
	}
	m.Append([]byte("solo"))
	proof, err := m.ProveInclusion(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Path) != 0 {
		t.Fatal("single-leaf path must be empty")
	}
	if !VerifyInclusion([]byte("solo"), proof, m.Root()) {
		t.Fatal("single-leaf inclusion failed")
	}
	if VerifyInclusion([]byte("solo"), nil, m.Root()) {
		t.Fatal("nil proof accepted")
	}
	if m.prefixRoot(0) != leafEmpty {
		t.Fatal("empty root not RFC6962 empty hash")
	}
}

func TestMerkleRootMatchesChainGrowthProperty(t *testing.T) {
	// Property: appending never changes earlier inclusion proofs' validity
	// when verified against the matching-size root.
	f := func(data [][]byte) bool {
		if len(data) == 0 || len(data) > 40 {
			return true
		}
		var m MerkleLog
		for _, d := range data {
			m.Append(d)
		}
		for i := range data {
			pf, err := m.ProveInclusion(i, len(data))
			if err != nil {
				return false
			}
			if !VerifyInclusion(data[i], pf, m.Root()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChainAppend(b *testing.B) {
	var c HashChain
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Append(payload)
	}
}

func benchmarkLogOps(b *testing.B, n int) {
	var m MerkleLog
	for i := 0; i < n; i++ {
		m.Append([]byte(fmt.Sprintf("entry-%d", i)))
	}
	root := m.Root()
	payload, _ := m.Entry(n / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := m.ProveInclusion(n/2, n)
		if err != nil {
			b.Fatal(err)
		}
		if !VerifyInclusion(payload, proof, root) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkLogInclusion16(b *testing.B)   { benchmarkLogOps(b, 16) }
func BenchmarkLogInclusion256(b *testing.B)  { benchmarkLogOps(b, 256) }
func BenchmarkLogInclusion4096(b *testing.B) { benchmarkLogOps(b, 4096) }

// ProveConsistency builds a consistency proof between sizes m0 and n of
// one tree: the path ShardedLog.ProveConsistencyBetween builds per shard.
func (m *MerkleLog) ProveConsistency(m0, n int) (*ConsistencyProof, error) {
	if m0 < 1 || n < m0 || n > m.Len() {
		return nil, fmt.Errorf("aolog: invalid consistency range %d..%d", m0, n)
	}
	var path []Digest
	if m0 < n {
		// One digest per level of the recursion, plus the base case's.
		path = m.appendConsistencyPath(make([]Digest, 0, bits.Len(uint(n-1))+1), 0, n, m0, true)
	}
	return &ConsistencyProof{OldSize: m0, NewSize: n, Path: path}, nil
}
