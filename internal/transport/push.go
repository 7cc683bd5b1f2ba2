package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Server-initiated push. The base protocol is strictly request/response:
// the client writes a Request frame, the server writes one Response frame.
// Push inverts that for subscription channels: a handler registered with
// HandlePush receives, besides the request body, a *Pusher bound to the
// requesting connection. Whoever holds the Pusher (e.g. a serve.Hub) may
// later write server-initiated frames to that client.
//
// A pushed frame is a Request envelope with ID 0 and Kind "_batch" whose
// body is a container of ordinary sub-requests — the same batch framing
// clients send, so one flush of accumulated notifications costs one
// frame. Peers tell pushes apart from responses by flagReply, which only
// a response carries.

// ErrPushClosed is returned by Pusher.Push after the connection is gone.
var ErrPushClosed = errors.New("transport: push connection closed")

// PushHandler is a handler that additionally receives the connection's
// Pusher. When the request arrives without a connection (direct dispatch
// in tests or fuzzing), p is nil and the handler must not retain it.
type PushHandler func(body json.RawMessage, p *Pusher) (any, error)

// Pusher writes server-initiated frames on one connection. All frame
// writes on the connection — responses and pushes — go through its
// mutex, so pushed frames never interleave bytes with a response. Safe
// for concurrent use.
type Pusher struct {
	conn net.Conn
	mu   sync.Mutex
	done chan struct{}
	obs  *serverObs // owning server's instruments; nil when uninstrumented
}

func newPusher(conn net.Conn) *Pusher {
	return &Pusher{conn: conn, done: make(chan struct{})}
}

// write serializes the write of one finished frame on the connection.
func (p *Pusher) write(frame []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return writeFrame(p.conn, frame)
}

// Push sends the sub-requests to the client as one server-initiated
// _batch frame. Sub-request IDs are assigned positionally.
func (p *Pusher) Push(subs []Request) error {
	select {
	case <-p.done:
		return ErrPushClosed
	default:
	}
	if len(subs) == 0 {
		return errors.New("transport: empty push")
	}
	if len(subs) > MaxBatchCalls {
		return fmt.Errorf("transport: push of %d exceeds limit %d", len(subs), MaxBatchCalls)
	}
	for i := range subs {
		subs[i].ID = uint64(i + 1)
	}
	frame, at, _ := beginFrame(nil, nil)
	frame = appendSubRequests(appendEnvelope(frame, flagBatch, 0, BatchKind, ""), subs)
	if err := endFrame(frame, at); err != nil {
		return err
	}
	if err := p.write(frame); err != nil {
		if p.obs != nil {
			p.obs.pushErrs.Inc()
		}
		return err
	}
	if p.obs != nil {
		p.obs.pushes.Inc()
		p.obs.tx.Add(uint64(len(frame)))
	}
	return nil
}

// Done is closed when the connection's serve loop exits; holders of the
// Pusher use it to drop dead subscribers without polling.
func (p *Pusher) Done() <-chan struct{} { return p.done }

// HandlePush registers a handler that may retain the connection's Pusher
// for server-initiated frames (subscription kinds). Push kinds are
// refused inside client _batch frames: a subscription is a property of
// the connection, and hiding one inside a batch would subscribe the
// whole connection as a side effect of an unrelated frame.
func (s *Server) HandlePush(kind string, h PushHandler) {
	s.register(kind, route{push: h, noBatch: true})
}
