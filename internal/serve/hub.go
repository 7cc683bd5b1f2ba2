package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/gossip"
	"repro/internal/transport"
)

// Hub fans new signed tree heads out to subscribers — the push half of
// the serving tier. Instead of every auditing client polling "headbls"
// (and every witness polling every source once per gossip interval), a
// subscriber registers once and the hub writes it one _batch frame per
// flush containing every head that advanced since its last flush. That
// cuts split-view detection latency from a polling/gossip round down to
// one push, and it cuts server work from O(clients) signatures+frames
// per head to O(1) signature and O(subscribers) frame writes.
//
// Delivery guarantees, per subscriber:
//   - heads for one source are delivered with non-decreasing sizes (a
//     regressed head is dropped at enqueue, never pushed);
//   - a slow subscriber coalesces: it receives the LATEST head per
//     source, skipping intermediates, rather than queueing unboundedly —
//     the stale-but-verified degradation applied to the push path;
//   - frames are written by a per-subscriber goroutine, so one stalled
//     connection never blocks the publisher or other subscribers;
//   - no push follows a subscribe ack with an older head: a batch is
//     written under the subscriber's write lock from the moment it is
//     taken, and the ack's heads are read under that lock, which then
//     raises the guard to them and drops older pending heads; likewise
//     unsubscribe returns only once a push in flight has been written,
//     and none starts after it.
type Hub struct {
	from string // label stamped on pushed HeadsMessages

	mu     sync.Mutex
	subs   map[*transport.Pusher]*hubSub
	closed bool

	pushed  atomic.Uint64 // heads enqueued across all subscribers
	dropped atomic.Uint64 // heads dropped (regressions + overflow)
}

// maxPendingSources bounds one subscriber's coalesced queue; past it new
// sources are dropped (existing sources still update in place).
const maxPendingSources = 1024

type hubSub struct {
	p *transport.Pusher

	// wmu is held from taking a batch until its frame is written, while
	// a subscribe ack is built, and by unsubscribe: see Hub.
	wmu sync.Mutex

	mu       sync.Mutex
	pending  map[string]int      // source key -> index in heads
	heads    []gossip.GossipHead // one pending (latest) head per source, first-seen order
	lastSize map[string]uint64   // per-source monotonicity guard
	kick     chan struct{}
	stop     chan struct{}
}

// NewHub creates a hub whose pushed frames carry the given From label.
func NewHub(from string) *Hub {
	return &Hub{from: from, subs: make(map[*transport.Pusher]*hubSub)}
}

// subscribe registers a connection for pushes (idempotent per
// connection) and returns the heads for its ack: current's, read under
// the subscriber's write lock (so current must not call into the hub). A
// push taken before then is written first, and the guard rises to the
// ack's heads, so no later push carries an older one.
func (h *Hub) subscribe(p *transport.Pusher, current func() []gossip.GossipHead) ([]gossip.GossipHead, error) {
	if p == nil {
		return nil, errors.New("serve: subscribe requires a connection")
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errors.New("serve: hub closed")
	}
	s, ok := h.subs[p]
	if !ok {
		s = &hubSub{
			p:        p,
			pending:  make(map[string]int),
			lastSize: make(map[string]uint64),
			kick:     make(chan struct{}, 1),
			stop:     make(chan struct{}),
		}
		h.subs[p] = s
		go h.run(s)
	}
	h.mu.Unlock()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	heads := current()
	s.raise(heads)
	return heads, nil
}

// unsubscribe removes a connection's subscription (no-op when absent).
// A push in flight is written before it returns; none starts after.
func (h *Hub) unsubscribe(p *transport.Pusher) {
	h.mu.Lock()
	s, ok := h.subs[p]
	if ok {
		delete(h.subs, p)
	}
	h.mu.Unlock()
	if ok {
		close(s.stop)
		s.wmu.Lock()
		s.wmu.Unlock()
	}
}

// Subscribers reports the live subscription count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Pending reports the push backlog: heads queued but not yet flushed
// across all subscribers. Exported for the serve-push-drain watchdog
// probe, which needs the instantaneous value between scrapes.
func (h *Hub) Pending() int {
	h.mu.Lock()
	subs := make([]*hubSub, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	total := 0
	for _, s := range subs {
		s.mu.Lock()
		total += len(s.heads)
		s.mu.Unlock()
	}
	return total
}

// Close drops every subscription. Connections stay open (the transport
// server owns them).
func (h *Hub) Close() {
	h.mu.Lock()
	subs := h.subs
	h.subs = make(map[*transport.Pusher]*hubSub)
	h.closed = true
	h.mu.Unlock()
	for _, s := range subs {
		close(s.stop)
	}
}

// sourceKey identifies a source across label aliasing: the compressed
// BLS key when present, the label otherwise.
func sourceKey(gh *gossip.GossipHead) string {
	if len(gh.SourcePK) > 0 {
		return hex.EncodeToString(gh.SourcePK)
	}
	return "name:" + gh.Source
}

// Publish enqueues heads for every subscriber. Stale heads (size below a
// subscriber's already-enqueued or already-pushed head for that source)
// are dropped per subscriber; equal-size re-publishes (e.g. a frontier
// whose cosignature set grew) replace the pending entry.
func (h *Hub) Publish(heads []gossip.GossipHead) {
	if len(heads) == 0 {
		return
	}
	h.mu.Lock()
	subs := make([]*hubSub, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	for _, s := range subs {
		p, d := s.enqueue(heads)
		h.pushed.Add(p)
		h.dropped.Add(d)
	}
}

// enqueue coalesces heads into the subscriber's pending set.
func (s *hubSub) enqueue(heads []gossip.GossipHead) (pushed, dropped uint64) {
	s.mu.Lock()
	for i := range heads {
		gh := &heads[i]
		key := sourceKey(gh)
		if gh.Head.Size < s.lastSize[key] {
			dropped++ // regression: never push a rolled-back head
			continue
		}
		if idx, ok := s.pending[key]; ok {
			s.heads[idx] = *gh
		} else {
			if len(s.heads) >= maxPendingSources {
				dropped++
				continue
			}
			s.pending[key] = len(s.heads)
			s.heads = append(s.heads, *gh)
		}
		s.lastSize[key] = gh.Head.Size
		pushed++
	}
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return pushed, dropped
}

// raise lifts the subscriber's guard to heads (an ack about to be
// sent) and drops the pending heads they supersede.
func (s *hubSub) raise(heads []gossip.GossipHead) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range heads {
		key := sourceKey(&heads[i])
		if size := heads[i].Head.Size; size > s.lastSize[key] {
			s.lastSize[key] = size
		}
	}
	kept := s.heads[:0]
	for _, gh := range s.heads {
		if gh.Head.Size >= s.lastSize[sourceKey(&gh)] {
			kept = append(kept, gh)
		}
	}
	if len(kept) == len(s.heads) {
		return
	}
	clear(s.heads[len(kept):])
	s.heads = kept
	s.pending = make(map[string]int, len(kept))
	for i := range kept {
		s.pending[sourceKey(&kept[i])] = i
	}
}

// run is the per-subscriber flush loop: it drains the coalesced pending
// set into ONE _batch frame per flush and exits when the subscriber is
// gone.
func (h *Hub) run(s *hubSub) {
	for {
		select {
		case <-s.kick:
		case <-s.stop:
			return
		case <-s.p.Done():
			h.unsubscribe(s.p)
			return
		}
		stopped, err := h.flush(s)
		if stopped {
			return
		}
		if err != nil {
			h.unsubscribe(s.p)
			return
		}
	}
}

// flush takes the pending heads and writes them as one frame, holding
// the write lock from the take until the frame is written. It reports
// whether the subscriber was already stopped and whether the push failed.
func (h *Hub) flush(s *hubSub) (stopped bool, err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	select {
	case <-s.stop:
		return true, nil
	default:
	}
	s.mu.Lock()
	batch := s.heads
	s.heads = nil
	s.pending = make(map[string]int)
	s.mu.Unlock()
	if len(batch) == 0 {
		return false, nil
	}
	body, err := json.Marshal(&gossip.HeadsMessage{From: h.from, Heads: batch})
	if err != nil {
		return false, nil // a head that cannot encode cannot be pushed
	}
	return false, s.p.Push([]transport.Request{{Kind: KindPushHeads, Body: body}})
}
