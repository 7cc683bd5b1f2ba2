package serve

import (
	"bytes"
	"fmt"
	"testing"

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
	if n := tier.reg.Value("serve_cache_entries"); n != 64-lo {
		t.Errorf("cache holds %v entries after one-off past-size proofs, want only the %d consistency proofs", n, 64-lo)
	}
}

// TestHitAllocs pins the allocations of read_hot's path, a hit on a
// proof the head holds: an inclusion proof allocates the reply and the
// copy of the head it carries, a consistency proof nothing. No closure,
// entry or flight record escapes on a hit.
func TestHitAllocs(t *testing.T) {
	f := newFixture(t)
	f.append(t, 64)
	tier := f.attach(t, Options{})
	waitHeadSize(t, tier, 64)
	proof := func() error {
		resp, err := tier.Proof(&ProofRequest{Index: 7})
		if err == nil && resp.Head == nil {
			err = fmt.Errorf("no head on a proof at the head")
		}
		return err
	}
	consistency := func() error {
		_, err := tier.Consistency(32, 0)
		return err
	}
	for _, c := range []struct {
		name string
		ask  func() error
		want float64
	}{
		{"inclusion proof at the head", proof, 2},
		{"consistency proof to the head", consistency, 0},
	} {
		if err := c.ask(); err != nil { // computes and caches
			t.Fatal(err)
		}
		misses := tier.reg.Value("serve_cache_misses_total")
		var err error
		n := testing.AllocsPerRun(200, func() {
			if e := c.ask(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m := tier.reg.Value("serve_cache_misses_total"); m != misses {
			t.Fatalf("%s: %v misses after the first ask, want every ask a hit", c.name, m-misses)
		}
		if n > c.want && !raceDetector {
			t.Errorf("%s: a hit allocates %v, want at most %v", c.name, n, c.want)
		}
	}
}

// TestPastSizeProofsAreNotCached pins the snapshot rule: a proof at the
// published head is cached on its first request, a proof at a past size
// is computed on every request and never cached, a consistency proof
// ending at the head is cached on its first, and a proof cached while its
// size was the head still answers, from the cache, both a request at that
// size and a degraded request once a newer head is published. A
// consistency proof ending at a size that is neither the head's nor the
// stale head's is computed on every request, and once a second newer head
// is published the first head's proofs are dropped with it.
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

	hits := tier.reg.Value("serve_cache_hits_total")
	for i := 0; i < 2; i++ {
		if _, err := tier.Consistency(2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := tier.reg.Value("serve_cache_hits_total") - hits; got != 1 {
		t.Fatalf("two asks of one consistency proof hit the cache %v times, want 1", got)
	}

	// Index 2 was cached while 4 was the head; publish 6, then refuse
	// every computation: a request at the head degrades to the proof
	// cached at 4.
	stale, err := tier.HeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	fb.grow(t, tier, 6)
	ask(ProofRequest{Index: 2, Size: 4}, 5) // cached while 4 was the head
	release, ok := tier.gate.enter()
	if !ok {
		t.Fatal("gate refused the only caller")
	}
	resp, err := tier.Proof(&ProofRequest{Index: 2})
	release()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Overloaded || resp.StaleHead == nil || resp.StaleHead.Size != stale.Size {
		t.Fatalf("want a degraded answer at size %d, got %+v", stale.Size, resp)
	}
	if !aolog.VerifyShardInclusion(resp.Payload, resp.Proof, stale.Head) {
		t.Fatal("degraded proof does not verify against the stale head")
	}

	// A consistency proof ending at 5, neither the head (6) nor the stale
	// head (4), is computed for each caller and held by neither.
	series := func(name string) float64 { return tier.reg.Value(name) }
	hits, misses, entries := series("serve_cache_hits_total"), series("serve_cache_misses_total"), series("serve_cache_entries")
	for i := 0; i < 2; i++ {
		if _, err := tier.Consistency(2, 5); err != nil {
			t.Fatal(err)
		}
	}
	if h, m, e := series("serve_cache_hits_total")-hits, series("serve_cache_misses_total")-misses, series("serve_cache_entries"); h != 0 || m != 2 || e != entries {
		t.Fatalf("two asks of a consistency proof to size 5: %v hits, %v misses, %v entries; want 0, 2, %v", h, m, e, entries)
	}

	// Head 4 holds the inclusion proofs of 2 and 3 and the consistency
	// proof from 2; head 6 one more. Publishing 8 retires 4 with its three.
	ask(ProofRequest{Index: 1}, 6)
	entries, evictions := series("serve_cache_entries"), series("serve_cache_evictions_total")
	if entries != 4 {
		t.Fatalf("heads 4 and 6 hold %v proofs, want 4", entries)
	}
	fb.grow(t, tier, 8)
	if e, ev := series("serve_cache_entries"), series("serve_cache_evictions_total")-evictions; e != entries-3 || ev != 3 {
		t.Fatalf("after head 4 retired: %v entries, %v evicted; want %v and 3", e, ev, entries-3)
	}
	ask(ProofRequest{Index: 2, Size: 4}, 7) // head 4's proofs are gone
	ask(ProofRequest{Index: 1, Size: 6}, 7) // head 6 is the stale head
}

func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	return bytes.Equal(mustJSON(t, a), mustJSON(t, b))
}
