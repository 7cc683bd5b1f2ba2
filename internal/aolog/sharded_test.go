package aolog

import (
	"fmt"
	"testing"
	"testing/quick"
)

func shardedPayload(i int) []byte { return []byte(fmt.Sprintf("sharded-entry-%d", i)) }

func TestShardedLogBasics(t *testing.T) {
	if _, err := NewShardedLog(0); err == nil {
		t.Fatal("zero shards accepted")
	}
	s, err := NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.NumShards() != 4 {
		t.Fatal("fresh log wrong shape")
	}
	for i := 0; i < 11; i++ {
		if got := s.Append(shardedPayload(i)); got != i {
			t.Fatalf("append %d returned index %d", i, got)
		}
	}
	for i := 0; i < 11; i++ {
		p, err := s.Entry(i)
		if err != nil || string(p) != string(shardedPayload(i)) {
			t.Fatalf("entry %d wrong: %q, %v", i, p, err)
		}
	}
	if _, err := s.Entry(11); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestShardedLogBatchMatchesSequential(t *testing.T) {
	a, _ := NewShardedLog(3)
	b, _ := NewShardedLog(3)
	var batch [][]byte
	for i := 0; i < 23; i++ {
		a.Append(shardedPayload(i))
		batch = append(batch, shardedPayload(i))
	}
	if first := b.AppendBatch(batch); first != 0 {
		t.Fatalf("batch start index %d", first)
	}
	if a.SuperRoot() != b.SuperRoot() {
		t.Fatal("batched and sequential appends disagree")
	}
}

// TestShardedInclusionAcrossShards proves inclusion of every entry at every
// historical size, so audit paths crossing every shard boundary are
// exercised (shard counts 1, 2, 3, 4, 5 against up to 21 entries).
func TestShardedInclusionAcrossShards(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		s, _ := NewShardedLog(k)
		const total = 21
		for i := 0; i < total; i++ {
			s.Append(shardedPayload(i))
		}
		for n := 1; n <= total; n++ {
			super, err := s.SuperRootAt(n)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < n; g++ {
				proof, err := s.ProveInclusionAt(g, n)
				if err != nil {
					t.Fatalf("k=%d prove(%d,%d): %v", k, g, n, err)
				}
				if !VerifyShardInclusion(shardedPayload(g), proof, super) {
					t.Fatalf("k=%d inclusion %d in %d rejected", k, g, n)
				}
				if VerifyShardInclusion([]byte("forged"), proof, super) {
					t.Fatalf("k=%d forged payload accepted at %d/%d", k, g, n)
				}
			}
		}
	}
}

func TestShardedConsistencyAcrossShards(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		s, _ := NewShardedLog(k)
		const total = 17
		supers := make([]Digest, total+1)
		supers[0] = s.SuperRoot()
		for i := 0; i < total; i++ {
			s.Append(shardedPayload(i))
			supers[i+1] = s.SuperRoot()
		}
		for n0 := 0; n0 <= total; n0++ {
			for n1 := n0; n1 <= total; n1++ {
				proof, err := s.ProveConsistencyBetween(n0, n1)
				if err != nil {
					t.Fatalf("k=%d prove(%d,%d): %v", k, n0, n1, err)
				}
				if !VerifyShardConsistency(supers[n0], supers[n1], proof) {
					t.Fatalf("k=%d consistency %d -> %d rejected", k, n0, n1)
				}
				var bad Digest
				bad[0] = 0xcc
				if n0 != n1 && VerifyShardConsistency(bad, supers[n1], proof) {
					t.Fatalf("k=%d wrong old super-root accepted %d -> %d", k, n0, n1)
				}
			}
		}
	}
}

func TestShardedForkDetected(t *testing.T) {
	honest, _ := NewShardedLog(3)
	fork, _ := NewShardedLog(3)
	for i := 0; i < 9; i++ {
		honest.Append(shardedPayload(i))
		if i == 4 {
			fork.Append([]byte("rewritten"))
			continue
		}
		fork.Append(shardedPayload(i))
	}
	oldSuper := honest.SuperRoot()
	fork.Append(shardedPayload(9))
	proof, err := fork.ProveConsistencyBetween(9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyShardConsistency(oldSuper, fork.SuperRoot(), proof) {
		t.Fatal("forked sharded log passed consistency check")
	}
}

// TestShardedSuperRootCommitsToSizes checks the equivocation-evidence
// property: logs with identical shard roots but different claimed geometry
// must produce different super-roots.
func TestShardedSuperRootCommitsToSizes(t *testing.T) {
	a, _ := NewShardedLog(2)
	b, _ := NewShardedLog(4)
	for i := 0; i < 6; i++ {
		a.Append(shardedPayload(i))
		b.Append(shardedPayload(i))
	}
	if a.SuperRoot() == b.SuperRoot() {
		t.Fatal("different shard counts yielded the same super-root")
	}
}

// TestIncrementalRootEquivalence is the property test required by
// ISSUE 1: for random payload sequences, the incrementally maintained root
// (and every historical RootAt) equals the root recomputed from scratch.
func TestIncrementalRootEquivalence(t *testing.T) {
	f := func(data [][]byte) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		var m MerkleLog
		for _, p := range data {
			m.Append(p)
		}
		if m.Root() != RecomputeRoot(data) {
			return false
		}
		for n := 0; n <= len(data); n++ {
			if m.prefixRoot(n) != RecomputeRoot(data[:n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
