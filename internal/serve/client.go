package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gossip"
	"repro/internal/transport"
)

// Subscriber is the client half of the push channel: a filter on the
// heads a serving tier hands one client. The connection, its frame
// loop, call routing and deadlines belong to the transport.Client it
// rides; the subscriber owns the subscribe/unsubscribe calls, decoding
// pushed push_heads batches, the VerifyHead hook and the per-source
// monotonicity guard. Rejected and out-of-order heads are counted and
// dropped, never surfaced.
//
// A subscriber from NewSubscriber or Dial has one connection and stays
// dead when that dies; one from Redial replaces it. The guard belongs
// to the subscriber, not to a connection, so across any number of
// reconnects no head regresses and no ack delivers one a second time.
type Subscriber struct {
	// VerifyHead, when set, must return nil for a head to be accepted.
	// Set it before Subscribe; it runs on the connection's read loop.
	VerifyHead func(*gossip.GossipHead) error

	// OnHeads, when set, receives each accepted batch (after per-source
	// filtering). Set it before Subscribe. It runs on the read loop and
	// must not call back into the subscriber: the reply needs that loop.
	OnHeads func(from string, heads []gossip.GossipHead)

	// OnState, when set before Subscribe, observes a Redial subscriber's
	// connection: "connected" (err nil), "disconnected" (why it ended)
	// and "retry" (a failed dial or subscribe).
	OnState func(event string, err error)

	dial    func() (net.Conn, error) // nil: one connection, never replaced
	timeout time.Duration            // per-call deadline on dialed connections
	ctx     context.Context          // ended by Close
	cancel  context.CancelFunc
	client  atomic.Pointer[transport.Client] // nil while disconnected

	mu     sync.Mutex
	latest map[string]gossip.GossipHead // newest accepted head per source: the guard
	stats  SubStats
	loop   chan struct{} // closed when the redial loop has exited; nil until it starts
}

// SubStats counts what the subscriber saw.
type SubStats struct {
	Received   uint64 // heads accepted
	Dropped    uint64 // heads rejected by VerifyHead
	OutOfOrder uint64 // pushed heads below what their source had delivered
	Duplicate  uint64 // acked heads at or below what their source had delivered
	BadFrames  uint64 // pushed sub-requests that were not decodable push_heads
}

// The reconnect backoff of a Redial subscriber: full jitter under a
// ceiling that doubles from redialBase to redialMax. It follows failed
// attempts only; a lost connection is redialed at once.
const (
	redialBase = 100 * time.Millisecond
	redialMax  = 5 * time.Second
)

func newSubscriber() *Subscriber {
	s := &Subscriber{latest: make(map[string]gossip.GossipHead)}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// NewSubscriber wraps an established connection, which the caller must
// not read from afterwards.
func NewSubscriber(conn net.Conn) *Subscriber {
	s := newSubscriber()
	s.client.Store(transport.NewPushClient(conn, s.handlePush))
	return s
}

// Dial connects to addr (bounded by transport.DefaultDialTimeout) and
// returns a subscriber on that one connection.
func Dial(addr string) (*Subscriber, error) {
	conn, err := transport.DialConn(addr, transport.DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	return NewSubscriber(conn), nil
}

// Redial returns a subscriber that makes its own connections: from
// Subscribe until Close it dials in the background, subscribes, and
// does both again, after a jittered doubling backoff, whenever the
// connection is lost or could not be made. timeout bounds every call on
// every connection (0: none).
func Redial(dial func() (net.Conn, error), timeout time.Duration) *Subscriber {
	s := newSubscriber()
	s.dial, s.timeout = dial, timeout
	return s
}

// Close ends the subscription and its connection; calls in flight fail.
// On a Redial subscriber it returns once the background loop has exited.
func (s *Subscriber) Close() error {
	s.cancel()
	s.mu.Lock()
	loop := s.loop
	s.mu.Unlock()
	if loop != nil {
		<-loop // no connection is installed after this
	}
	if c := s.client.Load(); c != nil {
		return c.Close()
	}
	return nil
}

// Call performs an ordinary request/response RPC over the subscribed
// connection, concurrently with pushes. Between connections it fails at
// once rather than block: callers have their own retry cadence.
func (s *Subscriber) Call(kind string, in, out any) error {
	c := s.client.Load()
	if c == nil {
		return errors.New("serve: subscriber disconnected")
	}
	return c.Call(kind, in, out)
}

// Subscribe registers for pushes and primes the local head set from the
// ack. From is a self-identifying label for the server's logs. On a
// Redial subscriber it only starts the background loop and returns nil:
// the source may be down now and the subscription still comes up.
func (s *Subscriber) Subscribe(from string) error {
	if s.dial == nil {
		return s.subscribe(s.client.Load(), from)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loop == nil && s.ctx.Err() == nil {
		s.loop = make(chan struct{})
		go s.run(from)
	}
	return nil
}

func (s *Subscriber) subscribe(c *transport.Client, from string) error {
	var resp SubscribeResponse
	if err := c.CallCtx(s.ctx, KindSubscribe, &SubscribeRequest{From: from}, &resp); err != nil {
		return err
	}
	s.ingest("", resp.Heads, false)
	return nil
}

// run is a Redial subscriber's background loop.
func (s *Subscriber) run(from string) {
	defer close(s.loop)
	notify := s.OnState
	if notify == nil {
		notify = func(string, error) {}
	}
	failures := 0
	for {
		c, err := s.connect(from)
		if err != nil {
			notify("retry", err)
			if transport.Backoff(s.ctx, failures, redialBase, redialMax, rand.Float64()) != nil {
				return
			}
			failures++
			continue
		}
		failures = 0
		notify("connected", nil)
		select {
		case <-c.Done():
		case <-s.ctx.Done():
			return // Close closes the installed connection
		}
		s.client.Store(nil)
		notify("disconnected", c.Err())
	}
}

// connect dials, installs the new connection and subscribes on it. The
// connection is installed first: a head pushed right behind the ack can
// already reach a consumer that wants to Call.
func (s *Subscriber) connect(from string) (*transport.Client, error) {
	conn, err := s.dial()
	if err != nil {
		return nil, err
	}
	c := transport.NewPushClient(conn, s.handlePush)
	c.SetTimeout(s.timeout)
	s.client.Store(c)
	if err := s.subscribe(c, from); err != nil {
		s.client.Store(nil)
		c.Close()
		return nil, err
	}
	return c, nil
}

// handlePush receives the sub-requests of one pushed batch, on the read
// loop. Anything but a decodable KindPushHeads, a nested batch
// included, is counted and dropped.
func (s *Subscriber) handlePush(subs []transport.Request) {
	for i := range subs {
		var msg gossip.HeadsMessage
		if subs[i].Kind != KindPushHeads || json.Unmarshal(subs[i].Body, &msg) != nil {
			s.mu.Lock()
			s.stats.BadFrames++
			s.mu.Unlock()
			continue
		}
		s.ingest(msg.From, msg.Heads, true)
	}
}

// ingest hands OnHeads the heads that admit passes. pushed tells a
// server push from the priming by a subscribe ack.
func (s *Subscriber) ingest(from string, heads []gossip.GossipHead, pushed bool) {
	accepted := heads[:0:0]
	for i := range heads {
		if s.admit(&heads[i], pushed) {
			accepted = append(accepted, heads[i])
		}
	}
	if s.OnHeads != nil && len(accepted) > 0 {
		s.OnHeads(from, accepted)
	}
}

// admit verifies gh and passes it through the per-source guard,
// recording it when it reports true. A pushed head below the guard is a
// protocol violation and counts in OutOfOrder; one AT the guard passes:
// a witness re-publishes its frontier as cosignatures accumulate. An
// acked head must exceed the guard: the ack replays the current head on
// every (re)subscribe and a push can overtake it on the wire, so a
// stale one is expected, and dropped as a Duplicate.
func (s *Subscriber) admit(gh *gossip.GossipHead, pushed bool) bool {
	rejected := s.VerifyHead != nil && s.VerifyHead(gh) != nil
	key := sourceKey(gh)
	s.mu.Lock()
	defer s.mu.Unlock()
	last, seen := s.latest[key]
	switch {
	case rejected:
		s.stats.Dropped++
	case pushed && gh.Head.Size < last.Head.Size:
		s.stats.OutOfOrder++
	case !pushed && seen && gh.Head.Size <= last.Head.Size:
		s.stats.Duplicate++
	default:
		s.latest[key] = *gh
		s.stats.Received++
		return true
	}
	return false
}
