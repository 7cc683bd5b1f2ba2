package aolog

import "testing"

// TestShardedConsistencyAcrossShardGrowth pins the shard-growth regime
// explicitly: old size strictly below the stripe count K (so some shards
// are still empty, exercising the empty-prefix rule) and new size at or
// beyond K (every shard populated). Each proof is also checked against
// tampered roots and mismatched geometry.
func TestShardedConsistencyAcrossShardGrowth(t *testing.T) {
	for _, k := range []int{2, 4, 5, 8} {
		s, err := NewShardedLog(k)
		if err != nil {
			t.Fatal(err)
		}
		total := 3*k + 1
		supers := make([]Digest, total+1)
		supers[0] = s.SuperRoot()
		for i := 0; i < total; i++ {
			s.Append(shardedPayload(i))
			supers[i+1] = s.SuperRoot()
		}
		for n0 := 0; n0 < k; n0++ { // old size below the stripe count
			for n1 := k; n1 <= total; n1++ { // new size at or past it
				proof, err := s.ProveConsistencyBetween(n0, n1)
				if err != nil {
					t.Fatalf("k=%d prove(%d,%d): %v", k, n0, n1, err)
				}
				if !VerifyShardConsistency(supers[n0], supers[n1], proof) {
					t.Fatalf("k=%d growth consistency %d -> %d rejected", k, n0, n1)
				}
				// The reconstruction helpers must agree with the proven roots.
				if old, err := proof.OldSuperRoot(); err != nil || old != supers[n0] {
					t.Fatalf("k=%d OldSuperRoot(%d,%d) = %v, %v", k, n0, n1, old, err)
				}
				if nu := superRootOf(n1, k, proof.NewRoots); nu != supers[n1] {
					t.Fatalf("k=%d new super-root (%d,%d) = %v", k, n0, n1, nu)
				}
				// Tampering with an empty-prefix shard root must not pass:
				// the verifier pins empty shards to the empty tree root.
				if n0 < k && n0 > 0 {
					bad := *proof
					bad.OldRoots = append([]Digest{}, proof.OldRoots...)
					bad.OldRoots[k-1][0] ^= 0xA5 // shard k-1 is empty at n0 < k
					if VerifyShardConsistency(mustOldSuperRoot(t, &bad), supers[n1], &bad) {
						t.Fatalf("k=%d tampered empty-shard root accepted at %d -> %d", k, n0, n1)
					}
				}
				// Claiming different geometry must fail both super-root checks.
				badGeom := *proof
				badGeom.OldSize = n0 + 1
				if VerifyShardConsistency(supers[n0], supers[n1], &badGeom) {
					t.Fatalf("k=%d wrong OldSize accepted at %d -> %d", k, n0, n1)
				}
			}
		}
	}
}

// mustOldSuperRoot recomputes the (possibly tampered) old super-root for
// negative tests: the attack scenario is a prover who adjusts the
// committed roots and the claimed super-root together, which the
// empty-shard pin must still reject.
func mustOldSuperRoot(t *testing.T, p *ShardConsistencyProof) Digest {
	t.Helper()
	d, err := p.OldSuperRoot()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShardedGrowthForkRejected forks a log inside the pre-growth prefix
// (entry 1 rewritten) and grows it across the shard boundary: the fork's
// consistency proof from the honest size K-1 must fail against the
// honest super-root, while remaining valid against its own old root.
func TestShardedGrowthForkRejected(t *testing.T) {
	const k = 4
	honest, _ := NewShardedLog(k)
	fork, _ := NewShardedLog(k)
	for i := 0; i < k-1; i++ {
		honest.Append(shardedPayload(i))
		if i == 1 {
			fork.Append([]byte("rewritten"))
			continue
		}
		fork.Append(shardedPayload(i))
	}
	oldSuper := honest.SuperRoot() // size K-1: shard K-1 still empty
	for i := k - 1; i < 3*k; i++ {
		honest.Append(shardedPayload(i))
		fork.Append(shardedPayload(i))
	}
	proof, err := fork.ProveConsistencyBetween(k-1, 3*k)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyShardConsistency(oldSuper, fork.SuperRoot(), proof) {
		t.Fatal("fork across the shard boundary passed consistency")
	}
	// But the proof IS valid against its own old root — which is exactly
	// what turns it into equivocation evidence (gossip.EquivocationProof).
	x, err := proof.OldSuperRoot()
	if err != nil {
		t.Fatal(err)
	}
	if x == oldSuper {
		t.Fatal("fork shares the honest prefix root; test is vacuous")
	}
	if !VerifyShardConsistency(x, fork.SuperRoot(), proof) {
		t.Fatal("fork's own consistency proof should self-verify")
	}
}

// TestSuperRootHelpersRejectMalformed covers the geometry guards.
func TestSuperRootHelpersRejectMalformed(t *testing.T) {
	s, _ := NewShardedLog(3)
	for i := 0; i < 7; i++ {
		s.Append(shardedPayload(i))
	}
	proof, err := s.ProveConsistencyBetween(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	bad := *proof
	bad.OldRoots = bad.OldRoots[:1]
	if _, err := bad.OldSuperRoot(); err == nil {
		t.Fatal("short OldRoots accepted")
	}
	bad = *proof
	bad.NumShards = 0
	if _, err := bad.OldSuperRoot(); err == nil {
		t.Fatal("zero shards accepted")
	}
	bad = *proof
	bad.NewSize = bad.OldSize - 1
	if _, err := bad.OldSuperRoot(); err == nil {
		t.Fatal("shrinking proof accepted")
	}
	var nilProof *ShardConsistencyProof
	if _, err := nilProof.OldSuperRoot(); err == nil {
		t.Fatal("nil proof accepted")
	}
}
