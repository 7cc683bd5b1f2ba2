package serve

import (
	"container/list"
	"sync"
)

// proofCache is the read-path amortizer: a bounded LRU keyed on immutable
// facts about an append-only log — an inclusion proof at a FIXED tree
// size, a consistency proof between two FIXED sizes — with single-flight
// coalescing so that when a new head lands and ten thousand auditing
// clients ask for the same hot proof, exactly one computation runs and
// everyone else waits on it. Entries are never mutated after insertion;
// correctness does not depend on eviction policy, only freshness of the
// head under which a proof is SERVED (the tier's job, not the cache's).
//
// A key the caller does not fill (a proof at a past size: a client
// catching up from its own last head, a key that rarely comes back) is
// answered from the cache when it is there, and otherwise computed for
// its caller alone, touching neither the LRU nor the flight table.
type proofCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	flight  map[cacheKey]*flightCall

	hits, misses, coalesced, evictions uint64
}

type cacheKey struct {
	kind byte // 'i' inclusion, 'c' consistency
	a, b int  // (tree size, index) or (old size, new size)
}

func inclusionKey(size, index int) cacheKey { return cacheKey{kind: 'i', a: size, b: index} }
func consistencyKey(old, new int) cacheKey  { return cacheKey{kind: 'c', a: old, b: new} }

type cacheEntry struct {
	key cacheKey
	val any
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newProofCache(max int) *proofCache {
	if max < 1 {
		max = 1
	}
	return &proofCache{
		max:     max,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
		flight:  make(map[cacheKey]*flightCall),
	}
}

// peek returns a cached value without counting a miss and without
// coalescing — the overload degradation path uses it to answer from
// already-proven state only.
func (c *proofCache) peek(key cacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// do returns the cached value for key, or computes it exactly once no
// matter how many callers arrive concurrently. Errors are returned to
// every waiter of the flight but never cached, so a transient failure
// does not poison the key. Without fill, a miss is computed for this
// caller alone and not cached.
func (c *proofCache) do(key cacheKey, fill bool, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, nil
	}
	if !fill {
		c.misses++
		c.mu.Unlock()
		return compute()
	}
	if fl, ok := c.flight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-fl.done
		return fl.val, fl.err
	}
	c.misses++
	fl := &flightCall{done: make(chan struct{})}
	c.flight[key] = fl
	c.mu.Unlock()

	fl.val, fl.err = compute()

	c.mu.Lock()
	delete(c.flight, key)
	if fl.err == nil {
		c.insertLocked(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// insertLocked adds a value and evicts from the cold end past capacity.
func (c *proofCache) insertLocked(key cacheKey, val any) {
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// cacheStats is a point-in-time counter snapshot.
type cacheStats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
}

func (c *proofCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   c.lru.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}
