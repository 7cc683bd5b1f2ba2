package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/blsapp"
)

// TestConcurrentProofsAndAppends drives the monitor from 8 goroutines
// at once: two submit batches, two sign heads, two prove inclusion and
// two prove consistency, at sizes no head was signed at as well as at
// signed ones. The public log writes its prefix-root memo while it
// answers reads, so it relies on the monitor's one exclusive lock: under
// -race this test is what shows that every read path takes it. The
// goroutines share nothing but the monitor, so the race detector sees
// no ordering the monitor does not make. Every proof must verify
// against a head the monitor signed.
func TestConcurrentProofsAndAppends(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())
	const (
		submitters = 2
		batches    = 8
		batchSize  = 4
		rounds     = 40
	)
	frames := make([][][]*audit.AttestedStatusEnvelope, submitters)
	for w := range frames {
		for b := 0; b < batches; b++ {
			var frame []*audit.AttestedStatusEnvelope
			for i := 0; i < batchSize; i++ {
				frame = append(frame, envelope(fw, fmt.Sprintf("w%d-b%d-%d", w, b, i)))
			}
			frames[w] = append(frames[w], frame)
		}
	}
	if out := f.mon.SubmitBatch(frames[0][0]); out[0].Err != nil {
		t.Fatal(out[0].Err) // the provers start from a non-empty log
	}
	frames[0] = frames[0][1:]
	pk := f.mon.BLSPublicKey()
	head := func() (aolog.BLSSignedHead, error) {
		h, err := f.mon.TreeHeadBLS()
		if err == nil && !aolog.VerifyHeadBLS(pk, &h) {
			err = fmt.Errorf("head at %d does not verify", h.Size)
		}
		return h, err
	}
	// pastRoot proves the log at size n (below h) is a prefix of the
	// signed head h and returns its super-root, as a client holding an
	// old head would see it.
	pastRoot := func(n int, h aolog.BLSSignedHead) (aolog.Digest, error) {
		cons, err := f.mon.ProveConsistencyBetween(n, int(h.Size))
		if err != nil {
			return aolog.Digest{}, err
		}
		old, err := cons.OldSuperRoot()
		if err != nil {
			return aolog.Digest{}, err
		}
		if !aolog.VerifyShardConsistency(old, h.Head, cons) {
			return aolog.Digest{}, fmt.Errorf("consistency %d -> %d does not verify", n, h.Size)
		}
		return old, nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	spawn := func(seed int64, fn func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(rand.New(rand.NewSource(seed))); err != nil {
				errs <- err
			}
		}()
	}
	for w := 0; w < submitters; w++ {
		w := w
		spawn(int64(w), func(*rand.Rand) error {
			for _, frame := range frames[w] {
				for i, o := range f.mon.SubmitBatch(frame) {
					if o.Err != nil || o.Alert != nil {
						return fmt.Errorf("submitter %d: outcome %d: %v %v", w, i, o.Err, o.Alert)
					}
				}
			}
			return nil
		})
	}
	for s := 0; s < 2; s++ {
		spawn(int64(10+s), func(*rand.Rand) error {
			for r := 0; r < rounds/4; r++ {
				if _, err := head(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for p := 0; p < 2; p++ {
		spawn(int64(20+p), func(rng *rand.Rand) error {
			h, err := head()
			for r := 0; r < rounds && err == nil; r++ {
				if r%8 == 7 {
					h, err = head()
					continue
				}
				n := 1 + rng.Intn(int(h.Size))
				root := h.Head
				if n < int(h.Size) {
					if root, err = pastRoot(n, h); err != nil {
						break
					}
				}
				g := rng.Intn(n)
				payload, proof, err2 := f.mon.ProveInclusionAt(g, n)
				if err = err2; err == nil && !aolog.VerifyShardInclusion(payload, proof, root) {
					err = fmt.Errorf("inclusion of %d at %d does not verify", g, n)
				}
			}
			return err
		})
	}
	for c := 0; c < 2; c++ {
		spawn(int64(30+c), func(rng *rand.Rand) error {
			prev, err := head()
			for r := 0; r < rounds && err == nil; r++ {
				if r%8 == 7 {
					var cur aolog.BLSSignedHead
					if cur, err = head(); err != nil {
						break
					}
					proof, err2 := f.mon.ProveConsistencyBetween(int(prev.Size), int(cur.Size))
					if err = err2; err == nil && !aolog.VerifyShardConsistency(prev.Head, cur.Head, proof) {
						err = fmt.Errorf("consistency %d -> %d does not verify", prev.Size, cur.Size)
					}
					prev = cur
					continue
				}
				_, err = pastRoot(rng.Intn(int(prev.Size)+1), prev)
			}
			return err
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if final := signedHead(t, f.mon); int(final.Size) != submitters*batches*batchSize {
		t.Fatalf("log holds %d entries, want %d", final.Size, submitters*batches*batchSize)
	}
}
