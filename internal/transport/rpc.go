package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Request is the client->server envelope.
type Request struct {
	ID   uint64          `json:"id"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Response is the server->client envelope.
type Response struct {
	ID    uint64          `json:"id"`
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`
}

// Handler processes one request body and returns a response body.
type Handler func(body json.RawMessage) (any, error)

// HandlerCtx is a Handler that additionally receives the request
// context. When the frame arrived with a trace header, the context
// carries the obsv.TraceContext — handlers propagate it to downstream
// RPCs (CallCtx) and context-ful slog calls.
type HandlerCtx func(ctx context.Context, body json.RawMessage) (any, error)

// Server dispatches framed JSON requests to registered handlers.
// All exported methods are safe for concurrent use.
type Server struct {
	mu           sync.RWMutex
	handlers     map[string]HandlerCtx
	pushHandlers map[string]PushHandler
	noBatch      map[string]bool
	ln           net.Listener
	wg           sync.WaitGroup
	closed       chan struct{}
	conns        map[net.Conn]struct{}

	obs *serverObs // nil until Instrument; set before Serve

	// flight records dispatch failures (with the request's trace id, so
	// a flight dump links straight to /traces); errLimit keeps an error
	// storm from wiping the ring. Both are nil-safe.
	flight   atomic.Pointer[obsv.FlightRecorder]
	errLimit *obsv.FlightLimiter
	// acceptLimit holds a burst of Accept errors to one flight event a
	// second.
	acceptLimit *obsv.FlightLimiter
}

// Accept-error backoff bounds (the net/http values).
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// serverObs holds the server's telemetry instruments (per-kind request
// counts, error counts and latency, byte counters, batch sizes) plus
// the tracer that turns incoming trace headers into server spans.
type serverObs struct {
	tracer    *obsv.Tracer
	reqs      *obsv.CounterVec
	errs      *obsv.CounterVec
	lat       *obsv.HistogramVec
	rx        *obsv.Counter
	tx        *obsv.Counter
	batchSize *obsv.Histogram
	pushes    *obsv.Counter
	pushErrs  *obsv.Counter
	badFrames *obsv.Counter
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{
		handlers:     make(map[string]HandlerCtx),
		pushHandlers: make(map[string]PushHandler),
		noBatch:      make(map[string]bool),
		closed:       make(chan struct{}),
		conns:        make(map[net.Conn]struct{}),
		errLimit:     obsv.NewFlightLimiter(100 * time.Millisecond),
		acceptLimit:  obsv.NewFlightLimiter(time.Second),
	}
}

// SetFlightRecorder installs the daemon's flight recorder on the server.
// Call any time (typically right after Instrument); nil uninstalls.
func (s *Server) SetFlightRecorder(fr *obsv.FlightRecorder) {
	s.flight.Store(fr)
}

// Instrument registers the server's RPC metrics on reg and, when tracer
// is non-nil, opens one server span per request of a sampled trace.
// Call before Serve; the hot path reads the instruments without locks.
func (s *Server) Instrument(reg *obsv.Registry, tracer *obsv.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = &serverObs{
		tracer:    tracer,
		reqs:      reg.CounterVec("rpc_requests_total", "RPC requests dispatched, by kind", "kind"),
		errs:      reg.CounterVec("rpc_errors_total", "RPC requests answered with an error, by kind", "kind"),
		lat:       reg.HistogramVec("rpc_latency_seconds", "RPC handler latency, by kind", "kind", nil),
		rx:        reg.Counter("rpc_rx_bytes_total", "request frame bytes received"),
		tx:        reg.Counter("rpc_tx_bytes_total", "response frame bytes sent"),
		batchSize: reg.HistogramBuckets("rpc_batch_calls", "sub-requests per _batch frame", obsv.SizeBuckets),
		pushes:    reg.Counter("rpc_pushed_frames_total", "server-initiated push frames written"),
		pushErrs:  reg.Counter("rpc_push_errors_total", "push frame writes that failed"),
		badFrames: reg.Counter("rpc_bad_frames_total", "connections dropped on malformed frames"),
	}
}

func (s *Server) observability() *serverObs {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obs
}

// Handle registers a handler for a request kind.
func (s *Server) Handle(kind string, h Handler) {
	s.HandleCtx(kind, func(_ context.Context, body json.RawMessage) (any, error) { return h(body) })
}

// HandleCtx registers a context-aware handler for a request kind.
func (s *Server) HandleCtx(kind string, h HandlerCtx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = h
}

// HandleNoBatch registers a handler whose kind is refused inside _batch
// frames. Use it for application-level batch kinds that carry their own
// request lists (e.g. "invokebatch"): nesting those in a transport batch
// would multiply the per-frame work cap by itself.
func (s *Server) HandleNoBatch(kind string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = func(_ context.Context, body json.RawMessage) (any, error) { return h(body) }
	s.noBatch[kind] = true
}

func (s *Server) isNoBatch(kind string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.noBatch[kind]
}

// Serve starts accepting connections on ln until Close. It returns
// immediately; connection goroutines run in the background. A failed
// Accept stops the loop only when the listener is closed: anything else
// (EMFILE, ECONNABORTED) is retried after a short capped backoff, so a
// transient error cannot leave a daemon that is up and deaf.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var delay time.Duration // current backoff; zero outside an error burst
		for {
			conn, err := ln.Accept()
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return
				}
				if s.acceptLimit.Allow() {
					s.flight.Load().Record("rpc", "accept-error", err.Error(), 0, obsv.TraceContext{})
				}
				delay = min(max(2*delay, acceptBackoffMin), acceptBackoffMax)
				select {
				case <-s.closed:
					return
				case <-time.After(delay):
				}
				continue
			}
			delay = 0
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
}

// ListenAndServe listens on a fresh loopback TCP port and serves on it,
// returning the bound address.
func (s *Server) ListenAndServe() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, closes every active connection, and waits
// for in-flight handler goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ActiveConns reports the number of currently-open client connections.
// Leak-check tests compare it before and after a client workload: a
// client that closes its transport.Clients leaves it at zero.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		conn.Close()
		return
	default:
	}
	s.conns[conn] = struct{}{}
	obs := s.obs
	s.mu.Unlock()
	pusher := newPusher(conn)
	pusher.obs = obs
	defer func() {
		close(pusher.done)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		header, frame, err := ReadFrameHeader(conn)
		if err != nil {
			return
		}
		if obs != nil {
			obs.rx.Add(uint64(4 + len(header) + len(frame)))
		}
		var req Request
		if err := json.Unmarshal(frame, &req); err != nil {
			// Protocol violation: drop the connection.
			if obs != nil {
				obs.badFrames.Inc()
			}
			return
		}
		ctx := context.Background()
		if len(header) > 0 {
			// A malformed trace header is ignored, never fatal: the
			// header section is observability metadata, not protocol.
			if tc, err := obsv.DecodeTraceContext(header); err == nil {
				ctx = obsv.ContextWithTrace(ctx, tc)
			}
		}
		resp := s.dispatchConn(ctx, &req, pusher)
		out, err := json.Marshal(resp)
		if err != nil {
			return
		}
		if obs != nil {
			obs.tx.Add(uint64(4 + len(out)))
		}
		if err := pusher.writeFrame(out); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *Request) *Response {
	return s.dispatchConn(context.Background(), req, nil)
}

// dispatchConn routes one request. p is the requesting connection's
// Pusher (nil when dispatching without a connection); handlers registered
// via HandlePush receive it.
func (s *Server) dispatchConn(ctx context.Context, req *Request, p *Pusher) *Response {
	obs := s.observability()
	var start time.Time
	var span *obsv.Span
	if obs != nil {
		start = time.Now()
		if obs.tracer != nil {
			ctx, span = obs.tracer.Start(ctx, "rpc."+req.Kind)
		}
	}
	resp := s.route(ctx, req, p)
	if obs != nil {
		obs.reqs.With(req.Kind).Inc()
		// Exemplar-aware latency: sampled requests pin their trace id to
		// the bucket they land in, so an SLO breach can name traces.
		obs.lat.With(req.Kind).ObserveExemplar(time.Since(start).Seconds(), obsv.TraceFrom(ctx))
		if !resp.OK {
			obs.errs.With(req.Kind).Inc()
		}
	}
	if !resp.OK && s.errLimit.Allow() {
		s.flight.Load().Record("rpc", "error", req.Kind+": "+resp.Error, 0, obsv.TraceFrom(ctx))
	}
	if span != nil {
		if resp.OK {
			span.End(nil)
		} else {
			span.End(errors.New(resp.Error))
		}
	}
	return resp
}

// route performs the actual handler lookup and invocation.
func (s *Server) route(ctx context.Context, req *Request, p *Pusher) *Response {
	if req.Kind == BatchKind {
		return s.dispatchBatch(ctx, req)
	}
	if ph, ok := s.pushHandler(req.Kind); ok {
		body, err := ph(req.Body, p)
		if err != nil {
			return &Response{ID: req.ID, OK: false, Error: err.Error()}
		}
		enc, err := json.Marshal(body)
		if err != nil {
			return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("encoding response: %v", err)}
		}
		return &Response{ID: req.ID, OK: true, Body: enc}
	}
	s.mu.RLock()
	h, ok := s.handlers[req.Kind]
	s.mu.RUnlock()
	if !ok {
		return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
	body, err := h(ctx, req.Body)
	if err != nil {
		return &Response{ID: req.ID, OK: false, Error: err.Error()}
	}
	enc, err := json.Marshal(body)
	if err != nil {
		return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("encoding response: %v", err)}
	}
	return &Response{ID: req.ID, OK: true, Body: enc}
}

// Client is one connection to a Server, shared by any number of
// concurrent callers. One reader goroutine owns the receiving side: it
// decodes each frame's envelope once and routes it, a reply to the call
// waiting on its ID, a server-initiated frame to the push callback fixed
// at construction. Writes are serialized and nothing is held across a
// round trip, so calls pipeline on the socket, and a call that gives up
// abandons only its own reply: the connection stays good.
type Client struct {
	conn   net.Conn
	onPush func(subs []Request) // nil: pushed frames are dropped
	done   chan struct{}        // closed when the reader has exited

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *envelope // calls awaiting a reply, by request ID
	err     error                     // why the connection ended; nil while it is up
	trace   obsv.TraceContext         // connection-level trace (SetTrace)
	tracer  *obsv.Tracer              // client-side spans (SetTracer)
	timeout time.Duration             // default per-call deadline (SetTimeout)
}

// envelope is any frame a client can receive, decoded once: a Response,
// or a server-initiated Request (Kind set). err is set only on the
// envelope that tells a pending call its connection ended.
type envelope struct {
	ID    uint64          `json:"id"`
	OK    bool            `json:"ok"`
	Kind  string          `json:"kind"`
	Error string          `json:"error"`
	Body  json.RawMessage `json:"body"`
	err   error
}

// DefaultDialTimeout bounds connection establishment for Dial. A dial
// that cannot complete a TCP handshake in this long is talking to a
// black hole; blocking the caller indefinitely (the kernel default is
// minutes) turns one dead peer into a stuck daemon.
const DefaultDialTimeout = 10 * time.Second

// DialConn opens the TCP connection every dial in this package starts
// from; it is exported for the one outside holder of a NewPushClient.
func DialConn(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Dial connects to a server address, bounded by DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects to a server address with an explicit connect
// timeout (0 means DefaultDialTimeout).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	conn, err := DialConn(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connection and starts its reader. The
// caller must not read from conn afterwards.
func NewClient(conn net.Conn) *Client { return NewPushClient(conn, nil) }

// NewPushClient is NewClient for a connection that expects pushes (the
// client half of Pusher): onPush receives the sub-requests of each
// pushed _batch. It runs on the reader goroutine, so it must not call
// back into the Client: the reply it waited for could never be read.
func NewPushClient(conn net.Conn, onPush func(subs []Request)) *Client {
	c := &Client{
		conn:    conn,
		onPush:  onPush,
		done:    make(chan struct{}),
		pending: make(map[uint64]chan *envelope),
	}
	go c.readLoop()
	return c
}

// Close closes the connection; calls in flight fail. The reader exits
// as soon as its read returns (see Done).
func (c *Client) Close() error { return c.fail(errors.New("transport: client closed")) }

// Done is closed once the connection has ended and its reader has
// exited; Err then says why.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the connection ended (nil while it is up).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// SetTrace pins a connection-level trace context: every subsequent Call
// made without its own context trace sends a child span of tc in the
// frame header. Only enable toward peers that understand frame headers
// (a pre-header peer closes the connection on the first traced frame);
// within one deployment all daemons upgrade together.
func (c *Client) SetTrace(tc obsv.TraceContext) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = tc
}

// SetTracer records one client-side span per traced call.
func (c *Client) SetTracer(t *obsv.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// SetTimeout installs a default per-call deadline: every Call/CallCtx
// without an earlier context deadline gives up after d. Zero disables
// (context deadlines still apply).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// ErrRemote wraps an error string returned by the server.
type ErrRemote struct{ Msg string }

func (e *ErrRemote) Error() string { return "transport: remote error: " + e.Msg }

// Call sends a request of the given kind and decodes the response body
// into out (which may be nil to discard).
func (c *Client) Call(kind string, in any, out any) error {
	return c.CallCtx(context.Background(), kind, in, out)
}

// CallCtx is Call under ctx: it gives up when ctx ends or the connection
// default (SetTimeout) runs out, and a deadline error satisfies
// net.Error with Timeout() true. When ctx (or the connection's SetTrace
// default) carries a sampled trace, the request frame carries a child
// trace context in its header and, with SetTracer, a client span is
// recorded.
func (c *Client) CallCtx(ctx context.Context, kind string, in any, out any) (err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("transport: encoding request: %w", err)
	}
	reply := make(chan *envelope, 1)
	c.mu.Lock()
	if c.err != nil {
		defer c.mu.Unlock()
		return c.err
	}
	c.nextID++
	req := Request{ID: c.nextID, Kind: kind, Body: body}
	c.pending[req.ID] = reply
	tc, tracer, timeout := c.trace, c.tracer, c.timeout
	c.mu.Unlock()

	if t := obsv.TraceFrom(ctx); t.Valid() {
		tc = t
	}
	var header []byte
	if tc.Valid() && tc.Sampled() {
		child := tc.Child()
		header = child.Encode()
		if tracer != nil {
			span := tracer.StartRemote(child, "call."+kind)
			defer func() { span.End(err) }()
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	frame, err := json.Marshal(&req)
	if err != nil {
		err = fmt.Errorf("transport: encoding envelope: %w", err)
	} else {
		err = c.send(ctx, header, frame)
	}
	if err == nil {
		select {
		case env := <-reply:
			switch {
			case env.err != nil:
				return env.err
			case !env.OK:
				return &ErrRemote{Msg: env.Error}
			case out != nil:
				if err := json.Unmarshal(env.Body, out); err != nil {
					return fmt.Errorf("transport: decoding response body: %w", err)
				}
			}
			return nil
		case <-ctx.Done():
			err = fmt.Errorf("transport: awaiting %s response: %w", kind, ctx.Err())
		}
	}
	// Giving up costs this call its reply and nothing else: the frame,
	// if it still comes, is dropped by route.
	c.mu.Lock()
	delete(c.pending, req.ID)
	c.mu.Unlock()
	return err
}

// send writes one frame, bounded by ctx's deadline when it has one. A
// failed write may have left part of a frame on the socket, so it ends
// the connection.
func (c *Client) send(ctx context.Context, header, frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if deadline, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(deadline) // fails only on a closed connection, which the write reports
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	err := WriteFrameHeader(c.conn, header, frame)
	if err != nil {
		c.fail(err)
	}
	return err
}

// fail ends the connection with err, once: every pending call receives
// err, later calls fail with it at once, and the socket is closed.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil
	}
	c.err = err
	calls := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, reply := range calls {
		reply <- &envelope{err: err}
	}
	return c.conn.Close()
}

// readLoop is the connection's only reader. It ends on the first read
// or protocol error, which fails every pending call.
func (c *Client) readLoop() {
	defer close(c.done)
	for {
		frame, err := ReadFrame(c.conn)
		if err != nil {
			err = fmt.Errorf("transport: reading response: %w", err)
		} else {
			err = c.route(frame)
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// route delivers one received frame: a reply to the pending call that
// owns its ID, a pushed _batch to onPush. A reply nobody waits for (its
// caller gave up) and a malformed push are dropped; an undecodable
// envelope is fatal to the connection, as it is on the server side.
func (c *Client) route(frame []byte) error {
	env := new(envelope)
	if err := json.Unmarshal(frame, env); err != nil {
		return fmt.Errorf("transport: decoding response: %w", err)
	}
	if env.Kind == "" {
		c.mu.Lock()
		reply := c.pending[env.ID]
		delete(c.pending, env.ID)
		c.mu.Unlock()
		if reply != nil {
			reply <- env
		}
		return nil
	}
	var subs []Request
	if c.onPush != nil && env.Kind == BatchKind && json.Unmarshal(env.Body, &subs) == nil && len(subs) <= MaxBatchCalls {
		c.onPush(subs)
	}
	return nil
}
