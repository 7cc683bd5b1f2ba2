package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// flakyServer speaks just enough of the frame protocol to misbehave on
// demand: the first failConns connections are closed after reading one
// request (a post-send transport failure from the client's view); later
// connections serve every request with an OK empty response. It records
// the kind of every request it READ — the ground truth for "was this
// RPC re-sent". A _batch is answered with one OK entry per sub-request.
type flakyServer struct {
	ln        net.Listener
	mu        sync.Mutex
	kinds     []string
	conns     int
	failConns int
	wg        sync.WaitGroup
}

func newFlakyServer(t *testing.T, failConns int) *flakyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakyServer{ln: ln, failConns: failConns}
	fs.wg.Add(1)
	go fs.loop()
	t.Cleanup(fs.stop)
	return fs
}

func (fs *flakyServer) stop() {
	fs.ln.Close()
	fs.wg.Wait()
}

func (fs *flakyServer) addr() string { return fs.ln.Addr().String() }

func (fs *flakyServer) seenKinds() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.kinds...)
}

func (fs *flakyServer) loop() {
	defer fs.wg.Done()
	for {
		c, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conns++
		failThis := fs.conns <= fs.failConns
		fs.mu.Unlock()
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			defer c.Close()
			for {
				_, frame, err := ReadFrameHeader(c)
				if err != nil {
					return
				}
				req, err := parseRequest(frame)
				if err != nil {
					return
				}
				fs.mu.Lock()
				fs.kinds = append(fs.kinds, req.Kind)
				fs.mu.Unlock()
				if failThis {
					return // close without answering: lost response
				}
				out := appendEnvelope(nil, flagReply, req.ID, "", "")
				if req.Kind == BatchKind {
					subs, _ := parseSubRequests(nil, req.Body)
					out[1] |= flagBatch
					out = binary.AppendUvarint(out, uint64(len(subs)))
					for range subs {
						out = appendEntry(out, flagReply, "", "", []byte("{}"))
					}
				} else {
					out = append(out, "{}"...)
				}
				if err := WriteFrame(c, out); err != nil {
					return
				}
			}
		}()
	}
}

// dialManagedFast is DialManaged with the fixed policy shortened for
// tests: 3 attempts, millisecond backoff with pinned jitter, a 50ms
// breaker cooldown.
func dialManagedFast(addr string) *ManagedClient {
	m := DialManaged(addr, ManagedOptions{ConnectTimeout: time.Second})
	m.maxAttempts = 3
	m.baseDelay = time.Millisecond
	m.maxDelay = 5 * time.Millisecond
	m.brk.cooldown = 50 * time.Millisecond
	m.jitter = func() float64 { return 0.5 }
	return m
}

// state names the breaker state for assertions.
func (b *breaker) state() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold {
		return "closed"
	}
	if time.Now().Before(b.openUntil) {
		return "open"
	}
	return "half-open"
}

// TestManagedRetriesIdempotentPostSend: a lost response on an idempotent
// kind is retried on a fresh connection and succeeds.
func TestManagedRetriesIdempotentPostSend(t *testing.T) {
	fs := newFlakyServer(t, 1)
	m := dialManagedFast(fs.addr())
	defer m.Close()
	if err := m.Call("headbls", struct{}{}, nil); err != nil {
		t.Fatalf("idempotent call under one lost response: %v", err)
	}
	kinds := fs.seenKinds()
	if len(kinds) != 2 || kinds[0] != "headbls" || kinds[1] != "headbls" {
		t.Fatalf("server saw %v, want [headbls headbls]", kinds)
	}
	if _, retries, _ := m.Stats(); retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
}

// TestManagedNeverResendsNonIdempotent: a lost response on a
// non-idempotent kind fails WITHOUT a re-send — the wire must show
// exactly one submit.
func TestManagedNeverResendsNonIdempotent(t *testing.T) {
	fs := newFlakyServer(t, 1)
	m := dialManagedFast(fs.addr())
	defer m.Close()
	err := m.Call("submit", struct{}{}, nil)
	if err == nil {
		t.Fatal("submit with lost response returned nil error")
	}
	var remote *ErrRemote
	if errors.As(err, &remote) {
		t.Fatalf("expected transport error, got remote: %v", err)
	}
	if kinds := fs.seenKinds(); len(kinds) != 1 {
		t.Fatalf("server saw %d submits (%v), want exactly 1 — non-idempotent kinds must not be re-sent", len(kinds), kinds)
	}
}

// TestManagedRemoteErrorNotRetried: a server-answered error comes back
// verbatim with no retry (the RPC completed).
func TestManagedRemoteErrorNotRetried(t *testing.T) {
	srv := NewServer()
	srv.Handle("headbls", func(json.RawMessage) (any, error) { return nil, errors.New("nope") })
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := dialManagedFast(addr)
	defer m.Close()
	err = m.Call("headbls", struct{}{}, nil)
	var remote *ErrRemote
	if !errors.As(err, &remote) || remote.Msg != "nope" {
		t.Fatalf("err = %v, want ErrRemote{nope}", err)
	}
	if _, retries, _ := m.Stats(); retries != 0 {
		t.Fatalf("retries = %d, want 0", retries)
	}
}

// TestManagedReconnectsAcrossCalls: endpoint down → call fails; endpoint
// comes back on the same address → next call succeeds with no new
// client object.
func TestManagedReconnectsAcrossCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	m := dialManagedFast(addr)
	m.brk.threshold = 100 // keep the breaker out of this test
	defer m.Close()
	if err := m.Call("submit", struct{}{}, nil); err == nil {
		t.Fatal("call to dead endpoint succeeded")
	}
	// Dial failures send nothing, so even the non-idempotent submit used
	// all attempts.
	if _, retries, _ := m.Stats(); retries != 2 {
		t.Fatalf("retries = %d, want 2 (dial failures retry any kind)", retries)
	}

	srv := NewServer()
	srv.Handle("submit", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv.Serve(ln2)
	defer srv.Close()
	if err := m.Call("submit", struct{}{}, nil); err != nil {
		t.Fatalf("call after endpoint recovery: %v", err)
	}
}

// TestManagedBreaker: consecutive failures open the circuit (calls shed
// without dialing); after the cooldown a half-open probe closes it.
func TestManagedBreaker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	m := dialManagedFast(addr)
	m.maxAttempts = 1
	m.brk.threshold = 2
	defer m.Close()
	for i := 0; i < 2; i++ {
		if err := m.Call("headbls", struct{}{}, nil); err == nil {
			t.Fatal("call to dead endpoint succeeded")
		}
	}
	if got := m.brk.state(); got != "open" {
		t.Fatalf("breaker state = %q, want open", got)
	}
	if err := m.Call("headbls", struct{}{}, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call with open breaker = %v, want ErrCircuitOpen", err)
	}
	if _, _, rejected := m.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}

	// Recovery: bring the endpoint back, wait out the cooldown; the
	// half-open probe must succeed and close the circuit.
	srv := NewServer()
	srv.Handle("headbls", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv.Serve(ln2)
	defer srv.Close()
	time.Sleep(60 * time.Millisecond)
	if err := m.Call("headbls", struct{}{}, nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if got := m.brk.state(); got != "closed" {
		t.Fatalf("breaker state after probe = %q, want closed", got)
	}
}

// TestManagedCloseDoesNotWaitForDial: Close must return while a dial to
// a black-holed peer is still in flight, and the connection that dial
// eventually yields must be closed, not installed or leaked.
func TestManagedCloseDoesNotWaitForDial(t *testing.T) {
	dialing := make(chan struct{})
	release := make(chan struct{})
	client, server := net.Pipe()
	m := DialManaged("black-hole", ManagedOptions{
		Dial: func(string, time.Duration) (net.Conn, error) {
			close(dialing)
			<-release
			return client, nil
		},
	})
	callErr := make(chan error, 1)
	go func() { callErr <- m.Call("headbls", struct{}{}, nil) }()
	<-dialing

	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind an in-flight dial")
	}

	close(release)
	if err := <-callErr; err == nil {
		t.Fatal("call on a client closed mid-dial returned nil")
	}
	// The late connection was closed: its peer reads EOF at once.
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := server.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection not closed: read err = %v, want EOF", err)
	}
}

// TestClientCallTimeout: a server that never answers must not hang a
// client with SetTimeout.
func TestClientCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// read the request, never answer
			_, _, _ = ReadFrameHeader(c)
		}
	}()
	c, err := DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(80 * time.Millisecond)
	start := time.Now()
	err = c.Call("headbls", struct{}{}, nil)
	if err == nil {
		t.Fatal("call to mute server returned nil")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

// TestCallCtxDeadline: a context deadline bounds the call even without
// SetTimeout.
func TestCallCtxDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _, _ = ReadFrameHeader(c)
		select {} // never answer
	}()
	c, err := DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	if err := c.CallCtx(ctx, "headbls", struct{}{}, nil); err == nil {
		t.Fatal("call with expired context deadline returned nil")
	}
}

// TestCallBatchCtxDeadline: a context deadline bounds a batch as it
// bounds a single call.
func TestCallBatchCtxDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _, _ = ReadFrameHeader(c)
		_, _ = c.Read(make([]byte, 1)) // never answer; return when the client hangs up
	}()
	c, err := DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.CallBatchCtx(ctx, []BatchCall{{Kind: "status"}, {Kind: "history"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch past its deadline = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("80ms deadline took %v", d)
	}
}
