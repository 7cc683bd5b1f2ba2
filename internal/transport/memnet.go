package transport

import (
	"fmt"
	"net"
	"sync"
)

// MemListener is an in-process net.Listener over net.Pipe: Dial hands one
// end of a synchronous in-memory duplex to the caller and queues the
// other for Accept. No file descriptors are consumed, so load and race
// tests can open tens of thousands of "connections" without touching
// ulimits — the wire path (framing, batching, push) is exercised
// byte-for-byte identically to TCP.
type MemListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

// ErrMemListenerClosed is returned by Accept and Dial after Close. It
// wraps net.ErrClosed, which is what ends a Server's accept loop.
var ErrMemListenerClosed = fmt.Errorf("transport: memory listener closed: %w", net.ErrClosed)

// NewMemListener creates an in-memory listener ready for Serve.
func NewMemListener() *MemListener {
	return &MemListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

// Accept returns the server end of the next dialed connection.
func (l *MemListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.ch:
		return conn, nil
	case <-l.closed:
		return nil, ErrMemListenerClosed
	}
}

// Dial creates a connection to the listener and returns the client end.
func (l *MemListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, ErrMemListenerClosed
	}
}

// Close stops the listener. Connections already handed out stay open.
func (l *MemListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// Addr returns a placeholder address.
func (l *MemListener) Addr() net.Addr { return memAddr{} }
