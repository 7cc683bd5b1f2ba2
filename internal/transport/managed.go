package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the self-healing client layer, and the one way non-test
// code outside this package talks to a fixed endpoint. A raw Client is a
// single connection: it survives a call that timed out, but once the
// connection resets or a write fails it is dead for good, and it never
// retries. ManagedClient wraps one endpoint with the full reliability
// kit — lazy (re)connect with a connect timeout, per-call deadlines,
// exponential backoff with full jitter, a circuit breaker, and an
// idempotency table so only safe RPC kinds are ever re-sent.
//
// The retry rule that keeps this safe: a DIAL failure may retry any
// kind (nothing was sent), but once a request has been written, a
// transport failure — a timeout included: the server may be slow, not
// silent — retries only kinds listed as idempotent, on a fresh
// connection: the server may have executed a request whose response was
// lost, and re-sending a submit or invoke would double-apply it.
// Server-answered errors (ErrRemote) never retry: the RPC completed; it
// just failed.

// ErrCircuitOpen is returned (wrapped) when the endpoint's circuit
// breaker is open and the call was not attempted.
var ErrCircuitOpen = errors.New("transport: circuit open")

// ManagedOptions is what a caller may choose per endpoint. The zero
// value is usable. Everything else about the policy — attempts, backoff,
// breaker, idempotency table — is fixed (see the constants below): no
// caller has needed a second value.
type ManagedOptions struct {
	// ConnectTimeout bounds each dial (default DefaultDialTimeout).
	ConnectTimeout time.Duration
	// CallTimeout is the per-attempt deadline applied to every call
	// without an earlier context deadline (default 0: context only).
	CallTimeout time.Duration
	// OnRetry, when set, observes every retry: attempt is the 1-based
	// attempt that failed, err is its failure.
	OnRetry func(kind string, attempt int, err error)
	// Dial opens the connection (default net.DialTimeout over TCP). The
	// chaos plane passes fault.Injector.Dial here.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// The retry and breaker policy every ManagedClient runs.
const (
	maxAttempts      = 4                     // tries per call, dial and send together
	baseDelay        = 25 * time.Millisecond // seeds the exponential backoff
	maxDelay         = time.Second           // caps the backoff
	breakerThreshold = 5                     // consecutive failures that open the circuit
	breakerCooldown  = time.Second           // open time before a half-open probe
)

// DefaultIdempotent is the repo-wide idempotency table: read-only RPC
// kinds across transport, serve, gossip, domain, and blsapp surfaces.
// Everything absent — submit, submitbatch, invoke, invokebatch,
// gossipreport, subscribe (connection-scoped state), and any future
// kind — is NOT retried after a post-send failure. Every kind listed is
// one a server handles (TestEveryKindHasASender).
func DefaultIdempotent() map[string]bool {
	return map[string]bool{
		// log / monitor read path
		"headbls": true, "info": true, "consistency": true,
		"proof": true, "pull": true,
		// domain read path
		"status": true, "history": true, "audit": true,
		// witness read/exchange path: gossip_heads and pollinate are
		// ingest-style merges — re-delivering the same heads is a
		// no-op by construction (the witness keeps its frontier maximum).
		"witness_info": true, "gossip_heads": true, "pollinate": true,
	}
}

// breaker is a per-endpoint circuit breaker:
// Closed (normal) → Open after threshold consecutive failures (calls
// fail fast with ErrCircuitOpen, shedding load from a dead endpoint) →
// HalfOpen after the cooldown (exactly one probe call is allowed
// through) → Closed on probe success, back to Open on failure.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openUntil time.Time
	probing   bool
}

// allow reports whether a call may proceed. In half-open state only one
// caller at a time gets true; the rest fail fast until the probe
// resolves.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold {
		return true
	}
	if time.Now().Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// success records a successful call and closes the circuit.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
}

// failure records a failed call; at the threshold the circuit opens for
// the cooldown.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	if b.failures >= b.threshold {
		b.openUntil = time.Now().Add(b.cooldown)
	}
}

// ManagedClient is a self-healing client for one endpoint. Safe for
// concurrent use. Connections are dialed lazily and replaced whenever a
// call fails at the transport layer.
type ManagedClient struct {
	addr string
	opts ManagedOptions
	brk  breaker

	// Policy, fixed at construction; in-package tests shorten it.
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration
	idempotent  map[string]bool
	jitter      func() float64 // in [0,1)

	mu       sync.Mutex
	conn     *Client
	isClosed bool

	dials    atomic.Uint64
	retries  atomic.Uint64
	rejected atomic.Uint64 // calls shed by the open breaker
}

var errManagedClosed = errors.New("transport: managed client closed")

// idempotentKinds is the table every ManagedClient consults; it is
// never written after init.
var idempotentKinds = DefaultIdempotent()

// DialManaged creates a managed client for addr. No connection is made
// until the first call, so construction never fails — a down endpoint
// costs its callers a retried error, not a startup crash.
func DialManaged(addr string, opts ManagedOptions) *ManagedClient {
	if opts.ConnectTimeout <= 0 {
		opts.ConnectTimeout = DefaultDialTimeout
	}
	if opts.Dial == nil {
		opts.Dial = DialConn
	}
	return &ManagedClient{
		addr:        addr,
		opts:        opts,
		brk:         breaker{threshold: breakerThreshold, cooldown: breakerCooldown},
		maxAttempts: maxAttempts,
		baseDelay:   baseDelay,
		maxDelay:    maxDelay,
		idempotent:  idempotentKinds,
		jitter:      rand.Float64,
	}
}

// Stats reports lifetime dial, retry, and breaker-rejection counts.
func (m *ManagedClient) Stats() (dials, retries, rejected uint64) {
	return m.dials.Load(), m.retries.Load(), m.rejected.Load()
}

// Close closes the current connection and marks the client closed;
// subsequent calls fail. It never waits behind an in-flight dial.
func (m *ManagedClient) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.isClosed = true
	if m.conn != nil {
		err := m.conn.Close()
		m.conn = nil
		return err
	}
	return nil
}

// getConn returns the live connection, dialing if needed. The dial runs
// outside m.mu so one black-holed peer cannot stall Close or concurrent
// callers for the connect timeout; callers that race to dial each open
// a connection and all but the first to finish close theirs.
func (m *ManagedClient) getConn(ctx context.Context) (*Client, error) {
	m.mu.Lock()
	c, closed := m.conn, m.isClosed
	m.mu.Unlock()
	if closed {
		return nil, errManagedClosed
	}
	if c != nil {
		return c, nil
	}
	timeout := m.opts.ConnectTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		return nil, context.DeadlineExceeded
	}
	nc, err := m.opts.Dial(m.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", m.addr, err)
	}
	m.dials.Add(1)
	c = NewClient(nc)
	c.SetTimeout(m.opts.CallTimeout)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.isClosed {
		c.Close()
		return nil, errManagedClosed
	}
	if m.conn != nil {
		c.Close()
		return m.conn, nil
	}
	m.conn = c
	return c, nil
}

// dropConn discards c if it is still the current connection. Called
// after a transport-level failure: whatever is wrong with the endpoint,
// the next attempt starts from a fresh connection.
func (m *ManagedClient) dropConn(c *Client) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn == c {
		m.conn.Close()
		m.conn = nil
	}
}

// Backoff sleeps for the attempt's full-jitter delay, jitter (in [0,1))
// of min(max, base·2^attempt), or until ctx ends, whose error it then
// returns. It is every reconnect loop's wait.
func Backoff(ctx context.Context, attempt int, base, max time.Duration, jitter float64) error {
	ceil := base << uint(attempt)
	if ceil > max || ceil <= 0 {
		ceil = max
	}
	t := time.NewTimer(time.Duration(jitter * float64(ceil)))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Call invokes kind with retry/backoff/breaker (background context).
func (m *ManagedClient) Call(kind string, in, out any) error {
	return m.CallCtx(context.Background(), kind, in, out)
}

// CallCtx invokes kind under ctx. Retry policy:
//   - breaker open → fail fast with ErrCircuitOpen (no attempt);
//   - dial failure → retryable for ANY kind (nothing was sent);
//   - server-answered error (ErrRemote), or an answer the caller's out
//     cannot hold (ErrBinaryBody) → returned as-is, never retried,
//     breaker counts it a success (the endpoint is healthy);
//   - post-send transport failure → connection dropped; retried only if
//     kind is in the idempotency table.
func (m *ManagedClient) CallCtx(ctx context.Context, kind string, in, out any) error {
	return m.retry(ctx, kind, m.idempotent[kind], func(c *Client) error {
		return c.CallCtx(ctx, kind, in, out)
	})
}

// retry runs call under CallCtx's policy; idempotent permits a re-send.
func (m *ManagedClient) retry(ctx context.Context, kind string, idempotent bool, call func(*Client) error) error {
	var lastErr error
	for attempt := 0; attempt < m.maxAttempts; attempt++ {
		if attempt > 0 {
			m.retries.Add(1)
			if err := Backoff(ctx, attempt-1, m.baseDelay, m.maxDelay, m.jitter()); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !m.brk.allow() {
			m.rejected.Add(1)
			return fmt.Errorf("%w: %s", ErrCircuitOpen, m.addr)
		}
		c, err := m.getConn(ctx)
		if err != nil {
			if errors.Is(err, errManagedClosed) {
				return err
			}
			m.brk.failure()
			lastErr = err
			m.onRetry(kind, attempt+1, err)
			continue // dial failure: nothing sent, any kind may retry
		}
		err = call(c)
		if err == nil {
			m.brk.success()
			return nil
		}
		var remote *ErrRemote
		var wrongOut *ErrBinaryBody
		if errors.As(err, &remote) || errors.As(err, &wrongOut) {
			// The server answered: the RPC ran and failed, or succeeded
			// into an out that cannot hold its reply. Healthy endpoint,
			// unhealthy request — don't retry, don't trip the breaker.
			m.brk.success()
			return err
		}
		// Transport failure after (possibly partial) send: the server
		// may or may not have executed the request.
		m.dropConn(c)
		m.brk.failure()
		lastErr = err
		if !idempotent {
			return fmt.Errorf("transport: %s not retried (non-idempotent): %w", kind, err)
		}
		m.onRetry(kind, attempt+1, err)
	}
	return fmt.Errorf("transport: %s: %d attempts exhausted: %w", kind, m.maxAttempts, lastErr)
}

func (m *ManagedClient) onRetry(kind string, attempt int, err error) {
	if m.opts.OnRetry != nil {
		m.opts.OnRetry(kind, attempt, err)
	}
}
