package serve

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/aolog"
)

// catchUpAllocs bounds what the tier allocates to answer one client
// catching up: an inclusion proof at a past size asked for the first
// time, plus a consistency proof to the head that is already cached. The
// miss allocates the proof (the proof struct and one array for its two
// paths), the value holding it beside the payload, and the reply; it
// allocates no flight record, channel, or LRU element.
const catchUpAllocs = 4

// TestCatchUpAllocs pins the allocations of the read path a client
// catching up from its last verified head drives.
func TestCatchUpAllocs(t *testing.T) {
	f := newFixture(t)
	f.append(t, 64)
	tier := f.attach(t, Options{})
	waitHeadSize(t, tier, 64)
	const lo = 32 // past sizes lo..63
	for size := lo; size < 64; size++ {
		if _, err := tier.Consistency(size, 0); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		size, index := lo+i%lo, i/lo // a key never asked before
		i++
		resp, err := tier.Proof(&ProofRequest{Index: index, Size: size})
		if err != nil || resp.Proof == nil {
			t.Fatalf("proof (%d,%d): %v", index, size, err)
		}
		if _, err := tier.Consistency(size, 0); err != nil {
			t.Fatal(err)
		}
	})
	if n > catchUpAllocs && !raceDetector {
		t.Errorf("a past-size proof plus a cached consistency proof allocate %v, want at most %d", n, catchUpAllocs)
	}
	if st := tier.cache.stats(); st.Entries != 64-lo {
		t.Errorf("cache holds %d entries after one-off past-size proofs, want only the %d consistency proofs", st.Entries, 64-lo)
	}
}

// TestPastSizeProofsAreNotCached pins the admission rule: a proof at the
// published head is cached on its first request, a proof at a past size
// is computed on every request and never cached, a consistency proof is
// cached on its first, and a proof cached while its size was the head
// still answers, from the cache, both a request at that size and a
// degraded request once a newer head is published.
func TestPastSizeProofsAreNotCached(t *testing.T) {
	fb, _ := newFakeBackend(t, 4)
	tier, err := Attach(fb, Options{Source: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	tier.gate = newGate(1, 0)
	computed := func() uint64 { return fb.inclusions.Load() }
	ask := func(req ProofRequest, wantComputed uint64) *ProofResponse {
		t.Helper()
		resp, err := tier.Proof(&req)
		if err != nil {
			t.Fatal(err)
		}
		if got := computed(); got != wantComputed {
			t.Fatalf("%+v: %d proofs computed so far, want %d", req, got, wantComputed)
		}
		return resp
	}

	ask(ProofRequest{Index: 2}, 1)
	ask(ProofRequest{Index: 2}, 1)
	ask(ProofRequest{Index: 3, Size: 4}, 2) // at the head, size explicit
	ask(ProofRequest{Index: 3, Size: 4}, 2)

	var past [3]*ProofResponse
	for i, want := range []uint64{3, 4, 5} {
		past[i] = ask(ProofRequest{Index: 1, Size: 3}, want)
	}
	for _, r := range past[1:] {
		if !bytes.Equal(r.Payload, past[0].Payload) || !sameJSON(t, r.Proof, past[0].Proof) || r.Head != nil {
			t.Fatalf("past-size answers differ: %+v vs %+v", r, past[0])
		}
	}

	hits := tier.cache.stats().Hits
	for i := 0; i < 2; i++ {
		if _, err := tier.Consistency(2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := tier.cache.stats().Hits - hits; got != 1 {
		t.Fatalf("two asks of one consistency proof hit the cache %d times, want 1", got)
	}

	// Index 2 was cached while 4 was the head; publish 6, then refuse
	// every computation: a request at the head degrades to the proof
	// cached at 4.
	stale, err := tier.HeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	log := fb.active()
	for i := 4; i < 6; i++ {
		log.Append([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	tier.Kick()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if h, err := tier.HeadBLS(); err != nil || h.Size == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("head never advanced")
		}
	}
	ask(ProofRequest{Index: 2, Size: 4}, 5) // cached while 4 was the head
	release, ok := tier.gate.enter()
	if !ok {
		t.Fatal("gate refused the only caller")
	}
	defer release()
	resp, err := tier.Proof(&ProofRequest{Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Overloaded || resp.StaleHead == nil || resp.StaleHead.Size != stale.Size {
		t.Fatalf("want a degraded answer at size %d, got %+v", stale.Size, resp)
	}
	if !aolog.VerifyShardInclusion(resp.Payload, resp.Proof, stale.Head) {
		t.Fatal("degraded proof does not verify against the stale head")
	}
}

func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	return bytes.Equal(mustJSON(t, a), mustJSON(t, b))
}
