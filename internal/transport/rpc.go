package transport

import (
	"bufio"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Request is the client->server envelope (wire2.go has its form on the
// wire). The JSON tags are for callers that log or price an envelope;
// no frame carries it as JSON.
type Request struct {
	ID   uint64          `json:"id"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Response is the server->client envelope, tagged as Request is.
type Response struct {
	ID    uint64          `json:"id"`
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`

	binary    bool // Body is the result's binary form, not JSON
	container bool // Body is a batch container
}

// flags is the response's flags byte, as an envelope or an entry.
func (r *Response) flags() byte {
	flags := byte(flagReply)
	if !r.OK {
		flags |= flagError
	}
	if r.binary {
		flags |= flagBinary
	}
	if r.container {
		flags |= flagBatch
	}
	return flags
}

// Handler processes one request body and returns a response body.
type Handler func(body json.RawMessage) (any, error)

// HandlerCtx is a Handler that additionally receives the request
// context. When the frame arrived with a trace header, the context
// carries the obsv.TraceContext — handlers propagate it to downstream
// RPCs (CallCtx) and context-ful slog calls.
type HandlerCtx func(ctx context.Context, body json.RawMessage) (any, error)

// Server dispatches framed requests to registered handlers.
// All exported methods are safe for concurrent use.
type Server struct {
	mu     sync.RWMutex
	routes map[string]route
	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}
	conns  map[net.Conn]struct{}

	// handoff passes an accepted connection to a serving goroutine that
	// waits for one; idle counts those waiting, at most maxIdleServers.
	handoff chan net.Conn
	idle    atomic.Int32

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

// route is what a request kind is registered as: exactly one of handler
// and push is set, and noBatch refuses the kind inside a _batch. The zero
// route is an unknown kind.
type route struct {
	handler HandlerCtx
	push    PushHandler
	noBatch bool
}

// lookup returns the server's instruments and kind's route, under one
// read lock.
func (s *Server) lookup(kind string) (*serverObs, route) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obs, s.routes[kind]
}

// register installs a kind's route, replacing any earlier one.
func (s *Server) register(kind string, r route) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[kind] = r
}

// maxIdleServers caps the serving goroutines that wait for the next
// connection once theirs has ended; any more exit.
const maxIdleServers = 16

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
	reqs      *obsv.Family[*obsv.Counter]
	errs      *obsv.Family[*obsv.Counter]
	lat       *obsv.Family[*obsv.Histogram]
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
		routes:      make(map[string]route),
		closed:      make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
		handoff:     make(chan net.Conn),
		errLimit:    obsv.NewFlightLimiter(100 * time.Millisecond),
		acceptLimit: obsv.NewFlightLimiter(time.Second),
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

// Handle registers a handler for a request kind.
func (s *Server) Handle(kind string, h Handler) {
	s.HandleCtx(kind, func(_ context.Context, body json.RawMessage) (any, error) { return h(body) })
}

// HandleCtx registers a context-aware handler for a request kind.
func (s *Server) HandleCtx(kind string, h HandlerCtx) {
	s.register(kind, route{handler: h})
}

// HandleNoBatch registers a handler whose kind is refused inside _batch
// frames. Use it for application-level batch kinds that carry their own
// request lists (e.g. "invokebatch"): nesting those in a transport batch
// would multiply the per-frame work cap by itself.
func (s *Server) HandleNoBatch(kind string, h Handler) {
	s.register(kind, route{
		handler: func(_ context.Context, body json.RawMessage) (any, error) { return h(body) },
		noBatch: true,
	})
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
			select {
			case s.handoff <- conn:
			default:
				s.wg.Add(1)
				go s.serve(conn)
			}
		}
	}()
}

// serve serves conn, then each connection the accept loop hands over
// while it waits, so a connection is served on a stack that has already
// grown, with buffers that are already allocated. It exits when
// maxIdleServers others wait already, or on Close.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	var bufs connBuffers
	for {
		s.serveConn(conn, &bufs)
		if s.idle.Add(1) > maxIdleServers {
			s.idle.Add(-1)
			return
		}
		select {
		case conn = <-s.handoff:
			s.idle.Add(-1)
		case <-s.closed:
			s.idle.Add(-1)
			return
		}
	}
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
// for in-flight handler goroutines and the serving goroutines that wait
// for a connection.
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

// connBuffers is what a serving goroutine keeps from one connection to
// the next: the reader requests are read through, and the two buffers a
// reply's pieces and its frame are built in (a reply is written before
// the next request is read).
type connBuffers struct {
	br  *bufio.Reader
	enc replyEncoding
	out []byte
}

func (s *Server) serveConn(conn net.Conn, bufs *connBuffers) {
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
	if bufs.br == nil {
		bufs.br = bufio.NewReaderSize(conn, readBufferSize)
	} else {
		bufs.br.Reset(conn)
	}
	br, enc := bufs.br, &bufs.enc
	// Drops the reader's hold on conn, keeping its buffer.
	defer br.Reset(nil)
	for {
		header, frame, err := ReadFrameHeader(br)
		if err != nil {
			return
		}
		if obs != nil {
			obs.rx.Add(uint64(4 + len(header) + len(frame)))
		}
		req, err := parseRequest(frame)
		if err != nil {
			// Protocol violation: drop the connection.
			if obs != nil {
				obs.badFrames.Inc()
			}
			return
		}
		enc.scratch = keepBuffer(enc.scratch)[:0]
		ctx := context.Background()
		if len(header) > 0 {
			// A malformed trace header is ignored, never fatal: the
			// header section is observability metadata, not protocol.
			if tc, err := obsv.DecodeTraceContext(header); err == nil {
				ctx = obsv.ContextWithTrace(ctx, tc)
			}
		}
		resp := s.dispatchConn(ctx, req, pusher, enc)
		out, err := appendReplyFrame(bufs.out[:0], resp)
		if err != nil {
			return
		}
		bufs.out = keepBuffer(out)
		if obs != nil {
			obs.tx.Add(uint64(len(out)))
		}
		if err := pusher.write(out); err != nil {
			return
		}
	}
}

// parseRequest decodes one request frame. Anything but a v2 request
// envelope is an error, a frame from a wire-v1 peer among them; so is a
// batch flag that does not go with the _batch kind.
func parseRequest(frame []byte) (*Request, error) {
	var env envelope
	if err := env.parse(frame); err != nil {
		return nil, err
	}
	if env.reply || env.binary || !env.OK || env.batch != (env.Kind == BatchKind) {
		return nil, errMalformedV2
	}
	return &Request{ID: env.ID, Kind: env.Kind, Body: env.Body}, nil
}

// appendReplyFrame appends resp as one whole frame.
func appendReplyFrame(b []byte, resp *Response) ([]byte, error) {
	b, at, _ := beginFrame(b, nil)
	b = append(appendEnvelope(b, resp.flags(), resp.ID, "", resp.Error), resp.Body...)
	return b, endFrame(b, at)
}

// replyEncoding is what one connection keeps for encoding replies: the
// scratch buffer the pieces of one request's reply are appended to — a
// binary body, or a batch's bodies side by side and then their container
// — so that answering a hot read allocates no buffer at all. A piece
// stays valid when the buffer grows: it keeps the array it was written
// to. A _batch's sub-requests and their replies are parsed and built in
// subs and resps, also kept from one request to the next.
type replyEncoding struct {
	scratch []byte
	subs    []Request
	resps   []Response
}

// binaryAppender is how a result with a binary form is encoded without a
// buffer of its own. Go 1.24 names it encoding.BinaryAppender; go.mod
// says 1.22.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// unknownKind labels, in metrics and span names, every request whose kind
// no handler is registered for. The kind is the peer's to choose, so
// labelling with it verbatim would let any peer mint a counter and a
// histogram per request, each keyed by a string of up to a frame's size.
const unknownKind = "_unknown"

// dispatchConn routes one request. p is the requesting connection's
// Pusher (nil when dispatching without a connection); handlers registered
// via HandlePush receive it; enc is how that connection's replies are
// encoded.
func (s *Server) dispatchConn(ctx context.Context, req *Request, p *Pusher, enc *replyEncoding) *Response {
	obs, r := s.lookup(req.Kind)
	resp := new(Response)
	s.run(ctx, req, p, enc, obs, r, resp)
	return resp
}

// run answers one request into resp along the route looked up for its
// kind, inside the request's span and latency histogram.
func (s *Server) run(ctx context.Context, req *Request, p *Pusher, enc *replyEncoding, obs *serverObs, r route, resp *Response) {
	label := req.Kind
	if r.handler == nil && r.push == nil && req.Kind != BatchKind {
		label = unknownKind
	}
	var start time.Time
	var span *obsv.Span
	if obs != nil {
		start = time.Now()
		if obs.tracer != nil {
			ctx, span = obs.tracer.Start(ctx, "rpc."+label)
		}
	}
	switch {
	case req.Kind == BatchKind:
		s.dispatchBatch(ctx, req, enc, obs, resp)
	case r.push != nil:
		result, err := r.push(req.Body, p)
		enc.respond(resp, req.ID, result, err)
	case r.handler != nil:
		result, err := r.handler(ctx, req.Body)
		enc.respond(resp, req.ID, result, err)
	default:
		*resp = Response{ID: req.ID, OK: false, Error: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
	if obs != nil {
		obs.reqs.With(label).Inc()
		// Exemplar-aware latency: sampled requests pin their trace id to
		// the bucket they land in, so an SLO breach can name traces.
		obs.lat.With(label).ObserveExemplar(time.Since(start).Seconds(), obsv.TraceFrom(ctx))
		if !resp.OK {
			obs.errs.With(label).Inc()
		}
	}
	if !resp.OK && s.errLimit.Allow() {
		s.flight.Load().Record("rpc", "error", label+": "+resp.Error, 0, obsv.TraceFrom(ctx))
	}
	if span != nil {
		if resp.OK {
			span.End(nil)
		} else {
			span.End(errors.New(resp.Error))
		}
	}
}

// respond encodes what a handler returned into resp. A result that
// implements encoding.BinaryMarshaler travels in that form; everything
// else is JSON. Encoding happens here, inside the span and the latency
// histogram, as it always has.
func (enc *replyEncoding) respond(resp *Response, id uint64, result any, err error) {
	if err != nil {
		*resp = Response{ID: id, OK: false, Error: err.Error()}
		return
	}
	*resp = Response{ID: id, OK: true}
	if bm, ok := result.(encoding.BinaryMarshaler); ok && !isNilPointer(result) {
		resp.binary = true
		start := len(enc.scratch)
		if ba, ok := result.(binaryAppender); ok {
			enc.scratch, err = ba.AppendBinary(enc.scratch)
		} else {
			var body []byte
			body, err = bm.MarshalBinary()
			enc.scratch = append(enc.scratch, body...)
		}
		resp.Body = enc.scratch[start:len(enc.scratch):len(enc.scratch)]
	} else {
		resp.Body, err = json.Marshal(result)
	}
	if err != nil {
		*resp = Response{ID: id, OK: false, Error: fmt.Sprintf("encoding response: %v", err)}
	}
}

// isNilPointer reports a typed nil pointer, which JSON encodes as null
// and a MarshalBinary method may not survive.
func isNilPointer(v any) bool {
	rv := reflect.ValueOf(v)
	return rv.Kind() == reflect.Pointer && rv.IsNil()
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

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // the frame being written; guarded by wmu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *envelope // calls awaiting a reply, by request ID
	err     error                     // why the connection ended; nil while it is up
	timeout time.Duration             // default per-call deadline (SetTimeout)
}

// envelope is any frame, decoded once: a Response (flagReply set), or a
// Request, server-initiated when a client receives it. err is set only
// on the envelope that tells a pending call its connection ended.
type envelope struct {
	ID    uint64
	OK    bool
	Kind  string
	Error string
	Body  []byte

	reply  bool // flagReply: a Response
	binary bool // flagBinary: Body is the result's binary form
	batch  bool // flagBatch: Body is a container
	err    error
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

// ErrBinaryBody reports a body that arrived in its type's binary form
// for an out that cannot read one: a caller decoded a kind's reply into
// something other than the type that kind answers with, or a handler
// decoded a request body into something other than the type the client
// sent. It is an error, never a silently zero out.
type ErrBinaryBody struct {
	Kind string // the request kind; empty for a request body
	Out  string // the Go type of the out that was offered
}

func (e *ErrBinaryBody) Error() string {
	what := "the " + e.Kind + " reply"
	if e.Kind == "" {
		what = "the request body"
	}
	return fmt.Sprintf("transport: %s is binary and %s does not implement encoding.BinaryUnmarshaler", what, e.Out)
}

// DecodeBody unpacks a request body into out, as a handler receives it:
// JSON, or markerV2 followed by the binary form of an out implementing
// encoding.BinaryUnmarshaler. A binary body offered to any other out is
// an *ErrBinaryBody.
func DecodeBody(body []byte, out any) error {
	if !isV2(body) {
		return json.Unmarshal(body, out)
	}
	return decodeBody("", body[1:], true, out)
}

// appendRequestBody appends in as a request body: markerV2 and its
// binary form when in has one (a typed nil has none: it is JSON null),
// JSON otherwise.
func appendRequestBody(b []byte, in any) ([]byte, error) {
	if ba, ok := in.(binaryAppender); ok && !isNilPointer(in) {
		return ba.AppendBinary(append(b, markerV2))
	}
	js, err := json.Marshal(in)
	return append(b, js...), err
}

// decodeBody unpacks one successful reply body into out (nil discards).
func decodeBody(kind string, body []byte, isBinary bool, out any) error {
	if out == nil {
		return nil
	}
	if !isBinary {
		return json.Unmarshal(body, out)
	}
	u, ok := out.(encoding.BinaryUnmarshaler)
	if !ok {
		return &ErrBinaryBody{Kind: kind, Out: fmt.Sprintf("%T", out)}
	}
	return u.UnmarshalBinary(body)
}

// Call sends a request of the given kind and decodes the response body
// into out (which may be nil to discard).
func (c *Client) Call(kind string, in any, out any) error {
	return c.CallCtx(context.Background(), kind, in, out)
}

// CallCtx is Call under ctx: it gives up when ctx ends or the connection
// default (SetTimeout) runs out, and a deadline error satisfies
// net.Error with Timeout() true. When ctx carries a sampled trace, the
// request frame carries a child trace context in its header.
func (c *Client) CallCtx(ctx context.Context, kind string, in any, out any) error {
	body, err := appendRequestBody(nil, in)
	if err != nil {
		return fmt.Errorf("transport: encoding request: %w", err)
	}
	env, err := c.roundTrip(ctx, kind, body)
	if err != nil {
		return err
	}
	if err := decodeBody(kind, env.Body, env.binary, out); err != nil {
		return fmt.Errorf("transport: decoding response body: %w", err)
	}
	return nil
}

// roundTrip sends one request — a _batch body must be a container:
// CallBatch's business, a JSON list sent by hand through Call is answered
// "malformed batch body" — and waits for its reply, which it returns only
// if the server answered OK.
func (c *Client) roundTrip(ctx context.Context, kind string, body []byte) (_ *envelope, err error) {
	reply := make(chan *envelope, 1)
	c.mu.Lock()
	if c.err != nil {
		defer c.mu.Unlock()
		return nil, c.err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = reply
	timeout := c.timeout
	c.mu.Unlock()

	var header []byte
	if tc := obsv.TraceFrom(ctx); tc.Valid() && tc.Sampled() {
		header = tc.Child().Encode()
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err = c.send(ctx, header, &Request{ID: id, Kind: kind, Body: body}); err == nil {
		select {
		case env := <-reply:
			switch {
			case env.err != nil:
				return nil, env.err
			case !env.OK:
				return nil, &ErrRemote{Msg: env.Error}
			}
			return env, nil
		case <-ctx.Done():
			err = fmt.Errorf("transport: awaiting %s response: %w", kind, ctx.Err())
		}
	}
	// Giving up costs this call its reply and nothing else: the frame,
	// if it still comes, is dropped by route.
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	return nil, err
}

// send frames and writes one request, bounded by ctx's deadline when it
// has one. A request that cannot be encoded fails alone; a failed write
// may have left part of a frame on the socket, so it ends the connection.
func (c *Client) send(ctx context.Context, header []byte, req *Request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, at, err := beginFrame(c.wbuf[:0], header)
	if err != nil {
		return err
	}
	var flags byte
	if req.Kind == BatchKind {
		flags = flagBatch
	}
	buf = append(appendEnvelope(buf, flags, req.ID, req.Kind, ""), req.Body...)
	if err := endFrame(buf, at); err != nil {
		return err
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(deadline) // fails only on a closed connection, which the write reports
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	err = writeFrame(c.conn, buf)
	c.wbuf = keepBuffer(buf)
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
// or protocol error, which fails every pending call. Reading through a
// buffer makes a frame one read from the socket, not one for its length
// word and one for its payload.
func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, readBufferSize)
	for {
		frame, err := ReadFrame(br)
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
// envelope — a wire-v1 frame among them — is fatal to the connection, as
// it is on the server side.
func (c *Client) route(frame []byte) error {
	env, err := parseEnvelope(frame)
	if err != nil {
		return fmt.Errorf("transport: decoding response: %w", err)
	}
	if env.reply {
		c.mu.Lock()
		reply := c.pending[env.ID]
		delete(c.pending, env.ID)
		c.mu.Unlock()
		if reply != nil {
			reply <- env
		}
		return nil
	}
	if c.onPush == nil || env.Kind != BatchKind || !env.batch {
		return nil
	}
	if subs, err := parseSubRequests(nil, env.Body); err == nil {
		c.onPush(subs)
	}
	return nil
}
