package aolog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The streaming hashes every log byte was defined by. The production
// hashes fill stack arrays instead; TestHashesMatchStreamingReference
// pins them to these byte for byte.

func refLeafHash(payload []byte) Digest {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(payload)
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

func refNodeHash(l, r Digest) Digest {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

func refChainHash(prev Digest, index uint64, leaf Digest) Digest {
	h := sha256.New()
	h.Write([]byte{0x02})
	h.Write(prev[:])
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], index)
	h.Write(idx[:])
	h.Write(leaf[:])
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

func refShardLeaf(j int, size uint64, root Digest) Digest {
	buf := []byte{0x03}
	buf = binary.BigEndian.AppendUint32(buf, uint32(j))
	buf = binary.BigEndian.AppendUint64(buf, size)
	buf = append(buf, root[:]...)
	return refLeafHash(buf)
}

func randDigest(rng *rand.Rand) Digest {
	var d Digest
	rng.Read(d[:])
	return d
}

func TestHashesMatchStreamingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 500; i++ {
		payload := make([]byte, rng.Intn(200))
		rng.Read(payload)
		if leafHash(payload) != refLeafHash(payload) {
			t.Fatalf("leafHash differs on %x", payload)
		}
		l, r := randDigest(rng), randDigest(rng)
		if nodeHash(l, r) != refNodeHash(l, r) {
			t.Fatal("nodeHash differs")
		}
		idx := rng.Uint64()
		if chainHash(l, idx, r) != refChainHash(l, idx, r) {
			t.Fatal("chainHash differs")
		}
		j := rng.Intn(1 << 20)
		if shardLeaf(j, idx, r) != refShardLeaf(j, idx, r) {
			t.Fatal("shardLeaf differs")
		}
	}
}

// TestRootAtMemoMatchesRecompute interleaves appends with root queries in
// random order, so the prefix-root memo is filled in no particular
// order: every prefix root (and every shard's root inside SuperRootAt) must
// equal the root recomputed from the payloads with no cache at all, at
// every size, 0, 1 and the powers of two included, on the first query
// and on every later one.
func TestRootAtMemoMatchesRecompute(t *testing.T) {
	const total = 600
	for _, k := range []int{1, 2, 3, 4, 7} {
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		s, err := NewShardedLog(k)
		if err != nil {
			t.Fatal(err)
		}
		o := &rootOracle{k: k}
		check := func(n int) {
			want := o.shardRoots(n)
			for j := 0; j < k; j++ {
				sz := shardLen(n, j, k)
				if got := s.shards[j].prefixRoot(sz); got != want[j] {
					t.Fatalf("k=%d n=%d shard %d: prefixRoot(%d) = %x, recomputed %x", k, n, j, sz, got, want[j])
				}
			}
			got, err := s.SuperRootAt(n)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.superRoot(n); got != want {
				t.Fatalf("k=%d SuperRootAt(%d) = %x, recomputed %x", k, n, got, want)
			}
		}
		for s.Len() < total {
			for step := 1 + rng.Intn(40); step > 0 && s.Len() < total; step-- {
				p := []byte(fmt.Sprintf("memo-%d-%d", k, s.Len()))
				o.append(p)
				s.Append(p)
			}
			for q := rng.Intn(20); q >= 0; q-- {
				check(rng.Intn(s.Len() + 1))
			}
			want := o.shardRoots(s.Len())
			for j := 0; j < k; j++ {
				if s.shards[j].Root() != want[j] {
					t.Fatalf("k=%d shard %d: Root at %d differs from recomputation", k, j, s.Len())
				}
			}
			if s.SuperRoot() != o.superRoot(s.Len()) {
				t.Fatalf("k=%d SuperRoot at %d differs from recomputation", k, s.Len())
			}
		}
		// Every size, the boundaries first: most answers now come from
		// the memo, the rest fill it.
		for _, n := range []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, total} {
			check(n)
		}
		for _, n := range rng.Perm(total + 1) {
			check(n)
		}
	}
}

// rootOracle recomputes every root from the payloads with RecomputeRoot:
// no level cache, no prefix-root memo.
type rootOracle struct {
	k        int
	payloads [][][]byte // payloads[j]: shard j's payloads in order
	seen     map[int][]Digest
}

func (o *rootOracle) append(p []byte) {
	if o.payloads == nil {
		o.payloads = make([][][]byte, o.k)
	}
	n := 0
	for _, ps := range o.payloads {
		n += len(ps)
	}
	o.payloads[n%o.k] = append(o.payloads[n%o.k], p)
}

// shardRoots returns every shard's root at total size n. The test keeps
// each answer once it has recomputed it, to stay fast: the oracle's
// answer at a size never depends on another size's.
func (o *rootOracle) shardRoots(n int) []Digest {
	if o.seen == nil {
		o.seen = make(map[int][]Digest)
	}
	if r, ok := o.seen[n]; ok {
		return r
	}
	r := make([]Digest, o.k)
	for j := range r {
		r[j] = RecomputeRoot(o.payloads[j][:shardLen(n, j, o.k)])
	}
	o.seen[n] = r
	return r
}

func (o *rootOracle) superRoot(n int) Digest {
	roots := o.shardRoots(n)
	leaves := make([]Digest, o.k)
	for j := range leaves {
		leaves[j] = refShardLeaf(j, uint64(shardLen(n, j, o.k)), roots[j])
	}
	return subtreeRoot(leaves)
}

// proofOracle rebuilds sharded proofs from the leaf digests alone, by
// the RFC 6962 recursion and the streaming reference hashes: no level
// cache, no prefix-root memo, none of the prover's code.
type proofOracle struct {
	k      int
	leaves [][]Digest        // leaves[j]: shard j's leaf digests in order
	hashed map[[3]int]Digest // (shard, lo, hi) -> range hash, kept so the sweep stays fast
}

func newProofOracle(k int, payloads [][]byte) *proofOracle {
	o := &proofOracle{k: k, leaves: make([][]Digest, k), hashed: make(map[[3]int]Digest)}
	for g, p := range payloads {
		o.leaves[g%k] = append(o.leaves[g%k], refLeafHash(p))
	}
	return o
}

// rangeHash is the RFC 6962 hash of shard j's leaves [lo, hi).
func (o *proofOracle) rangeHash(j, lo, hi int) Digest {
	if hi-lo <= 1 {
		return refRoot(o.leaves[j][lo:hi])
	}
	key := [3]int{j, lo, hi}
	if d, ok := o.hashed[key]; ok {
		return d
	}
	k := largestPowerOfTwoBelow(hi - lo)
	d := refNodeHash(o.rangeHash(j, lo, lo+k), o.rangeHash(j, lo+k, hi))
	o.hashed[key] = d
	return d
}

// refRoot is the RFC 6962 hash of a list of leaves.
func refRoot(leaves []Digest) Digest {
	switch len(leaves) {
	case 0:
		return sha256.Sum256(nil)
	case 1:
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(len(leaves))
	return refNodeHash(refRoot(leaves[:k]), refRoot(leaves[k:]))
}

// at is the oracle's state at total size n: every shard's root and the
// super tree's leaves.
func (o *proofOracle) at(n int) (roots, super []Digest) {
	roots, super = make([]Digest, o.k), make([]Digest, o.k)
	for j := range roots {
		sz := shardLen(n, j, o.k)
		roots[j] = o.rangeHash(j, 0, sz)
		super[j] = refShardLeaf(j, uint64(sz), roots[j])
	}
	return roots, super
}

func (o *proofOracle) inclusion(g, n int, roots, super []Digest) *ShardInclusionProof {
	shard, local := g%o.k, g/o.k
	inShard := func(lo, hi int) Digest { return o.rangeHash(shard, lo, hi) }
	inSuper := func(lo, hi int) Digest { return refRoot(super[lo:hi]) }
	return &ShardInclusionProof{
		GlobalIndex: g,
		TreeSize:    n,
		NumShards:   o.k,
		ShardRoot:   roots[shard],
		Inner:       oraclePath(inShard, 0, shardLen(n, shard, o.k), local),
		Super:       oraclePath(inSuper, 0, o.k, shard),
	}
}

func (o *proofOracle) consistency(n0, n1 int, oldRoots, newRoots []Digest) *ShardConsistencyProof {
	p := &ShardConsistencyProof{
		OldSize: n0, NewSize: n1, NumShards: o.k,
		OldRoots: oldRoots, NewRoots: newRoots,
		Shards: make([]*ConsistencyProof, o.k),
	}
	for j := range p.Shards {
		oldLen, newLen := shardLen(n0, j, o.k), shardLen(n1, j, o.k)
		if oldLen > 0 && oldLen < newLen {
			inShard := func(lo, hi int) Digest { return o.rangeHash(j, lo, hi) }
			p.Shards[j] = &ConsistencyProof{OldSize: oldLen, NewSize: newLen,
				Path: oracleSubproof(inShard, 0, newLen, oldLen, true)}
		}
	}
	return p
}

// oraclePath is RFC 6962 PATH: the audit path of leaf i among [lo, hi),
// siblings from the leaf up, where hash(lo, hi) is a range's hash.
func oraclePath(hash func(lo, hi int) Digest, lo, hi, i int) []Digest {
	if hi-lo <= 1 {
		return nil
	}
	k := largestPowerOfTwoBelow(hi - lo)
	if i < lo+k {
		return append(oraclePath(hash, lo, lo+k, i), hash(lo+k, hi))
	}
	return append(oraclePath(hash, lo+k, hi, i), hash(lo, lo+k))
}

// oracleSubproof is RFC 6962 SUBPROOF(m, [lo, hi), flag).
func oracleSubproof(hash func(lo, hi int) Digest, lo, hi, m int, flag bool) []Digest {
	if m == hi-lo {
		if flag {
			return nil
		}
		return []Digest{hash(lo, hi)}
	}
	k := largestPowerOfTwoBelow(hi - lo)
	if m <= k {
		return append(oracleSubproof(hash, lo, lo+k, m, flag), hash(lo+k, hi))
	}
	return append(oracleSubproof(hash, lo+k, hi, m-k, false), hash(lo, lo+k))
}

// sameProof fails unless got and want are equal as values and as the
// bytes the binary wire form carries.
func sameProof[P interface {
	AppendBinary([]byte) ([]byte, error)
}](t *testing.T, what string, got, want P) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: proof differs from the oracle:\n got %+v\nwant %+v", what, got, want)
	}
	gb, err := got.AppendBinary(nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wb, err := want.AppendBinary(nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: binary form differs from the oracle's", what)
	}
}

// TestShardProofsMatchOracle: inclusion and consistency proofs from a
// log whose prefix-root memo fills in shuffled order must equal the
// memo-free oracle's: every (g, n) up to 300, every (n0, n1) up to 150,
// and a seeded sample of both up to 5,000.
func TestShardProofsMatchOracle(t *testing.T) {
	payloads := make([][]byte, 5000)
	for i := range payloads {
		payloads[i] = shardedPayload(i)
	}
	// Exhaustive at the monitor's stripe count; consistency pairs stop
	// at 150 to keep the -race run near twenty seconds.
	const k, n, consistencyUpTo = 4, 300, 150
	s, err := OpenShardedLog(k, payloads[:n], nil)
	if err != nil {
		t.Fatal(err)
	}
	o := newProofOracle(k, payloads[:n])
	roots, super := make([][]Digest, n+1), make([][]Digest, n+1)
	for size := range roots {
		roots[size], super[size] = o.at(size)
	}
	rng := rand.New(rand.NewSource(int64(300 + k)))
	for _, size := range rng.Perm(n) {
		size++
		for g := 0; g < size; g++ {
			got, err := s.ProveInclusionAt(g, size)
			if err != nil {
				t.Fatal(err)
			}
			sameProof(t, fmt.Sprintf("k=%d inclusion(%d, %d)", k, g, size), got, o.inclusion(g, size, roots[size], super[size]))
		}
	}
	for _, n1 := range rng.Perm(consistencyUpTo + 1) {
		for n0 := 0; n0 <= n1; n0++ {
			got, err := s.ProveConsistencyBetween(n0, n1)
			if err != nil {
				t.Fatal(err)
			}
			sameProof(t, fmt.Sprintf("k=%d consistency(%d, %d)", k, n0, n1), got, o.consistency(n0, n1, roots[n0], roots[n1]))
		}
	}

	for _, k := range []int{1, 2, 3, 4, 7} {
		rng := rand.New(rand.NewSource(int64(5000 + k)))
		s, err := NewShardedLog(k)
		if err != nil {
			t.Fatal(err)
		}
		o := newProofOracle(k, payloads)
		for s.Len() < len(payloads) {
			for step := 1 + rng.Intn(400); step > 0 && s.Len() < len(payloads); step-- {
				s.Append(payloads[s.Len()])
			}
			for q := 0; q < 10; q++ {
				n := 1 + rng.Intn(s.Len())
				g := rng.Intn(n)
				roots, super := o.at(n)
				got, err := s.ProveInclusionAt(g, n)
				if err != nil {
					t.Fatal(err)
				}
				sameProof(t, fmt.Sprintf("k=%d inclusion(%d, %d)", k, g, n), got, o.inclusion(g, n, roots, super))
				n0 := rng.Intn(n + 1)
				oldRoots, _ := o.at(n0)
				cons, err := s.ProveConsistencyBetween(n0, n)
				if err != nil {
					t.Fatal(err)
				}
				sameProof(t, fmt.Sprintf("k=%d consistency(%d, %d)", k, n0, n), cons, o.consistency(n0, n, oldRoots, roots))
			}
		}
	}
}

// proveInclusionAtAllocs and proveConsistencyAllocs bound ShardedLog's
// proof allocations on a warm memo. An inclusion proof is the proof and
// one array for both paths. A consistency proof is the proof, one array
// for both root lists and every path, the per-shard pointers and the
// per-shard proofs.
const (
	proveInclusionAtAllocs = 2
	proveConsistencyAllocs = 4
)

// TestHashAllocs: hashing and verifying allocate nothing, and a proof
// allocates only what it returns.
func TestHashAllocs(t *testing.T) {
	payload := []byte("allocation probe")
	var l, r Digest
	var sink Digest
	for name, f := range map[string]func(){
		"leafHash":  func() { sink = leafHash(payload) },
		"nodeHash":  func() { sink = nodeHash(l, r) },
		"shardLeaf": func() { sink = shardLeaf(3, 1<<40, l) },
		"chainHash": func() { sink = chainHash(l, 7, r) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, n)
		}
	}
	_ = sink

	var m MerkleLog
	s, err := NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		m.Append(shardedPayload(i))
		s.Append(shardedPayload(i))
	}
	leaf := shardedPayload(321)
	root := m.prefixRoot(777)
	ip, err := m.ProveInclusion(321, 777)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !VerifyInclusion(leaf, ip, root) {
			t.Fatal("inclusion proof rejected")
		}
	}); n != 0 {
		t.Errorf("VerifyInclusion allocates %v per call, want 0", n)
	}
	super, _ := s.SuperRootAt(777)
	sp, err := s.ProveInclusionAt(321, 777)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !VerifyShardInclusion(leaf, sp, super) {
			t.Fatal("sharded inclusion proof rejected")
		}
	}); n != 0 {
		t.Errorf("VerifyShardInclusion allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.ProveInclusionAt(321, 777); err != nil {
			t.Fatal(err)
		}
	}); n > proveInclusionAtAllocs {
		t.Errorf("ShardedLog.ProveInclusionAt allocates %v per call, want at most %d", n, proveInclusionAtAllocs)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.ProveConsistencyBetween(321, 777); err != nil {
			t.Fatal(err)
		}
	}); n > proveConsistencyAllocs {
		t.Errorf("ShardedLog.ProveConsistencyBetween allocates %v per call, want at most %d", n, proveConsistencyAllocs)
	}
	// A monitor signs a head after every append: the memo must grow
	// amortized, leaving the payload copy as the one allocation per
	// append that does not amortize away.
	if n := testing.AllocsPerRun(4000, func() {
		m.Append(payload)
		m.Root()
	}); n > 1.5 {
		t.Errorf("Append followed by Root allocates %v per call, want about 1", n)
	}
}

// BenchmarkShardProofsAtPastSizes is the read path a client catching up
// from an old head drives: one inclusion proof and one consistency proof
// to the current head, at a random past size of a four-shard log that
// has signed a head at every size.
func BenchmarkShardProofsAtPastSizes(b *testing.B) {
	const n = 1 << 14
	s, err := NewShardedLog(4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Append(shardedPayload(i))
		s.SuperRoot()
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size := 1 + rng.Intn(n)
		if _, err := s.ProveInclusionAt(rng.Intn(size), size); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ProveConsistencyBetween(size, n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSuperLeafMemoMatchesRecompute grows sharded logs one entry at a
// time and, at every size, checks each shard's memoized super-tree leaf
// against shardLeaf's streaming reference over a root recomputed from
// the payloads: at the new size as it is reached, and at every past size
// in random order, so the memo is read both where it was filled and
// where a past size fills it late. Leaves at the head are hashed afresh:
// until a past size is asked for, the memo stays empty.
func TestSuperLeafMemoMatchesRecompute(t *testing.T) {
	const total = 300
	for _, k := range []int{1, 3, 4} {
		rng := rand.New(rand.NewSource(int64(2000 + k)))
		s, err := NewShardedLog(k)
		if err != nil {
			t.Fatal(err)
		}
		o := &rootOracle{k: k}
		check := func(n int) {
			roots := o.shardRoots(n)
			got := s.superLeavesAt(n)
			for j := 0; j < k; j++ {
				sz := shardLen(n, j, k)
				if want := refShardLeaf(j, uint64(sz), roots[j]); got[j] != want {
					t.Fatalf("k=%d n=%d shard %d: memoized leaf %x, recomputed %x", k, n, j, got[j], want)
				}
			}
		}
		for s.Len() < total {
			p := []byte(fmt.Sprintf("leaf-memo-%d-%d", k, s.Len()))
			o.append(p)
			s.Append(p)
			check(s.Len())
			if s.Len() < 50 {
				for j, sh := range s.shards {
					if len(sh.superLeaves) != 0 {
						t.Fatalf("k=%d n=%d: shard %d memoized %d leaves with only head sizes asked", k, s.Len(), j, len(sh.superLeaves))
					}
				}
			}
			if s.Len()%50 == 0 {
				for _, n := range rng.Perm(s.Len() + 1) {
					check(n)
				}
			}
		}
	}
}

// TestEntryViewIsEntry: the payload a proof server passes on without a
// copy is Entry's, byte for byte, at every index and across appends
// that grow the log's storage under earlier views.
func TestEntryViewIsEntry(t *testing.T) {
	s, err := NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	var views [][]byte
	for s.Len() < 500 {
		p := []byte(fmt.Sprintf("view-%d", s.Len()))
		s.Append(p)
		p[0] = 'X' // Append copied it: the caller's buffer is its own
		for g := range views {
			if want, _ := s.Entry(g); !bytes.Equal(views[g], want) {
				t.Fatalf("view of entry %d became %q at size %d, Entry says %q", g, views[g], s.Len(), want)
			}
		}
		v, err := s.EntryView(s.Len() - 1)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	for _, g := range []int{-1, s.Len()} {
		if _, err := s.EntryView(g); err == nil {
			t.Errorf("EntryView(%d) of a %d-entry log succeeded", g, s.Len())
		}
	}
}

// RecomputeRoot is the O(n) reference: the RFC 6962 tree hash computed
// directly from the payloads with no caching.
func RecomputeRoot(payloads [][]byte) Digest {
	leaves := make([]Digest, len(payloads))
	for i, p := range payloads {
		leaves[i] = leafHash(p)
	}
	return subtreeRoot(leaves)
}
