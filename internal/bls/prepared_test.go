package bls

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// len reports how many tables the memo holds.
func (m *keyTableMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tables)
}

// reset empties the memo, so the next check on any key runs cold.
func (m *keyTableMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tables = nil
}

// contains reports whether pk's table is memoized.
func (m *keyTableMemo) contains(pk *PublicKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.tables[pk.p]
	return ok
}

// TestKeyTableMemoConcurrentEviction: concurrent Verify calls over more
// distinct keys than the memo holds, so it evicts while other callers
// read, give exactly the answers of a cold run (memo emptied before
// every call). Run it under -race.
func TestKeyTableMemoConcurrentEviction(t *testing.T) {
	const keys = keyTableMemoSize + 8
	rng := rand.New(rand.NewSource(22))
	type input struct {
		pk  *PublicKey
		msg []byte
		sig *Signature
	}
	inputs := make([]input, keys)
	for i := range inputs {
		sk := seededKey(t, rng)
		msg := []byte(fmt.Sprintf("memo eviction %d", i))
		sig := sk.Sign(msg)
		if i%3 == 2 { // every third signature is on another message
			sig = sk.Sign(append(msg, '!'))
		}
		inputs[i] = input{sk.PublicKey(), msg, sig}
	}
	cold := make([]bool, keys)
	for i, in := range inputs {
		keyTables.reset()
		cold[i] = Verify(in.pk, in.msg, in.sig)
		if cold[i] != (i%3 != 2) {
			t.Fatalf("key %d: cold Verify = %v", i, cold[i])
		}
	}

	keyTables.reset()
	workers := 4
	if raceDetector {
		workers = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < keys; j++ {
				i := (j + w*keys/workers) % keys // each worker starts elsewhere
				in := inputs[i]
				if got := Verify(in.pk, in.msg, in.sig); got != cold[i] {
					errs <- fmt.Errorf("worker %d key %d: Verify = %v, cold run said %v", w, i, got, cold[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := keyTables.len(); n != keyTableMemoSize {
		t.Fatalf("memo holds %d tables after %d distinct keys, want its bound %d", n, keys, keyTableMemoSize)
	}
}

// TestMemoizedKeyRejectsTampering: once a key's table is memoized, a
// tampered message or signature under that key still fails, and the
// honest input still passes.
func TestMemoizedKeyRejectsTampering(t *testing.T) {
	keyTables.reset()
	rng := rand.New(rand.NewSource(7))
	sk, other := seededKey(t, rng), seededKey(t, rng)
	pk := sk.PublicKey()
	msg := []byte("memoized head")
	sig := sk.Sign(msg)
	if !Verify(pk, msg, sig) {
		t.Fatal("honest signature rejected")
	}
	if !keyTables.contains(pk) {
		t.Fatal("Verify did not memoize the key's table")
	}
	if Verify(pk, []byte("memoized heae"), sig) {
		t.Fatal("tampered message accepted under a memoized key")
	}
	if Verify(pk, msg, other.Sign(msg)) {
		t.Fatal("another key's signature accepted under a memoized key")
	}
	var neg Signature
	neg.p.Neg(&sig.p)
	if Verify(pk, msg, &neg) {
		t.Fatal("negated signature accepted under a memoized key")
	}
	if !Verify(pk, msg, sig) {
		t.Fatal("honest signature rejected after tampered checks")
	}
}

// TestShareBatchDoesNotMemoize: the folded share key of
// VerifyShareSignaturesBatch is a fresh random combination per call,
// so it must never enter the memo.
func TestShareBatchDoesNotMemoize(t *testing.T) {
	tk, shares, err := ThresholdKeyGen(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("threshold message")
	ss := []SignatureShare{shares[0].SignShare(msg), shares[2].SignShare(msg), shares[4].SignShare(msg)}
	keyTables.reset()
	for i := 0; i < 3; i++ {
		if !tk.VerifyShareSignaturesBatch(msg, ss) {
			t.Fatal("valid share batch rejected")
		}
		if tk.VerifyShareSignaturesBatch([]byte("other message"), ss) {
			t.Fatal("share batch accepted on the wrong message")
		}
	}
	if n := keyTables.len(); n != 0 {
		t.Fatalf("VerifyShareSignaturesBatch left %d tables in the memo, want 0", n)
	}
}

// BenchmarkKeyMemo times Verify and a VerifyBatch over 16 distinct keys
// with the memo emptied before every call (cold: every key is walked
// and inserted) and left full (warm). BenchmarkVerify and the
// fixed-key batch and quorum benchmarks elsewhere measure the warm case
// after their first iteration.
func BenchmarkKeyMemo(b *testing.B) {
	const n = 16
	pks := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := range pks {
		sk, pk, err := GenerateKey()
		if err != nil {
			b.Fatal(err)
		}
		pks[i], msgs[i] = pk, []byte(fmt.Sprintf("key memo %d", i))
		sigs[i] = sk.Sign(msgs[i])
	}
	checks := []struct {
		name string
		run  func() bool
	}{
		{"verify", func() bool { return Verify(pks[0], msgs[0], sigs[0]) }},
		{"batch16keys", func() bool { return VerifyBatch(pks, msgs, sigs) }},
	}
	for _, c := range checks {
		for _, cold := range []bool{true, false} {
			name := c.name + "/warm"
			if cold {
				name = c.name + "/cold"
			}
			b.Run(name, func(b *testing.B) {
				keyTables.reset()
				for i := 0; i < b.N; i++ {
					if cold {
						keyTables.reset()
					}
					if !c.run() {
						b.Fatal("rejected")
					}
				}
			})
		}
	}
}
