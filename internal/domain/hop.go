package domain

import (
	"net"
	"sync"
)

// hopListener is the enclave end of a TEE domain's host→enclave hop. The
// host proxy hands it one end of a fresh socketpair per client, and the
// enclave's RPC server accepts them from it. It has no address, so
// nothing of it can outlive the process.
type hopListener struct {
	conns     chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func newHopListener() *hopListener {
	return &hopListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

// hand passes c to the next Accept. It reports false, leaving c to the
// caller, once the listener is closed.
func (l *hopListener) hand(c net.Conn) bool {
	select {
	case l.conns <- c:
		return true
	case <-l.closed:
		return false
	}
}

func (l *hopListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *hopListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

// Addr is the unnamed address a socketpair's ends report.
func (l *hopListener) Addr() net.Addr { return unnamedAddr() }

func unnamedAddr() net.Addr { return &net.UnixAddr{Net: "unix"} }
