package serve

// The proof cache is the published heads. A Merkle proof is a pure
// function of the log at a fixed size, so each head snapshot holds the
// proofs pinned to its size — inclusion proofs at it, consistency proofs
// ending at it — and they retire with it. The tier keeps two snapshots,
// the head and the stale head, so nothing is evicted by recency and
// nothing is invalidated: a new head starts empty, and proofs at the
// retired size go with the snapshot. A proof pinned to any other size (a
// client catching up from its own last head) is computed for its caller
// alone. Concurrent misses of one pinned key coalesce into a single
// computation: when a new head lands and ten thousand auditing clients
// ask for the same proof, one walk runs and everyone else waits on it.

// proofKey names a proof pinned to a snapshot's size.
type proofKey struct {
	kind byte // 'i' inclusion of leaf n, 'c' consistency from old size n
	n    int
}

// pinned is one entry of a snapshot's proof map: a computed proof, or,
// while fl is set, its computation in flight.
type pinned struct {
	val any
	fl  *flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// snapAt returns the published snapshot of size n, the head or the stale
// head, or nil when n is neither.
func (t *Tier) snapAt(head *headSnap, n int) *headSnap {
	if n == head.size {
		return head
	}
	if s := t.stale.Load(); s != nil && s.size == n {
		return s
	}
	return nil
}

// pinnedProof returns the proof k pinned to s, computing it at most once
// however many callers arrive together. With s nil, retired or full, a
// miss is computed for this caller alone. Errors reach every waiter of
// the flight but are never kept, so a transient failure does not poison
// the key.
func (t *Tier) pinnedProof(s *headSnap, k proofKey, compute func() (any, error)) (any, error) {
	if s == nil {
		t.misses.Add(1)
		return compute()
	}
	s.mu.Lock()
	if e, ok := s.proofs[k]; ok {
		s.mu.Unlock()
		if e.fl == nil {
			t.hits.Add(1)
			return e.val, nil
		}
		t.coalesced.Add(1)
		<-e.fl.done
		return e.fl.val, e.fl.err
	}
	t.misses.Add(1)
	if s.proofs == nil || len(s.proofs) >= snapProofs {
		s.mu.Unlock()
		return compute()
	}
	fl := &flightCall{done: make(chan struct{})}
	s.proofs[k] = pinned{fl: fl}
	s.mu.Unlock()

	fl.val, fl.err = compute()

	s.mu.Lock()
	if s.proofs != nil { // not retired meanwhile
		if fl.err == nil {
			s.proofs[k] = pinned{val: fl.val}
		} else {
			delete(s.proofs, k)
		}
	}
	s.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// lookup returns a computed proof pinned to s without counting or
// coalescing: the degraded path answers from already-proven state only.
func (s *headSnap) lookup(k proofKey) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.proofs[k]
	return e.val, ok && e.fl == nil
}

// held reports how many proofs s holds, computed or in flight (0 for nil).
func (s *headSnap) held() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.proofs)
}

// retire drops the snapshot's proofs once no published head has its size
// and returns how many went; a flight still running keeps its callers'
// answer but is not kept.
func (s *headSnap) retire() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.proofs)
	s.proofs = nil
	return n
}
