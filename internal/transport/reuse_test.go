package transport

import (
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// liveGoroutines returns the ids of every goroutine of the process.
func liveGoroutines() map[uint64]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := make(map[uint64]bool)
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		g = bytes.TrimPrefix(g, []byte("goroutine "))
		if i := bytes.IndexByte(g, ' '); i > 0 {
			if id, err := strconv.ParseUint(string(g[:i]), 10, 64); err == nil {
				live[id] = true
			}
		}
	}
	return live
}

// servedBy is a listener that notes the goroutine of every Accept and
// of every Read on a connection it accepted: the server's accept loop
// and the goroutines serving its connections.
type servedBy struct {
	*MemListener
	mu  sync.Mutex
	ids map[uint64]bool
}

func newServedBy() *servedBy {
	return &servedBy{MemListener: NewMemListener(), ids: make(map[uint64]bool)}
}

func (l *servedBy) note() {
	id := goid()
	l.mu.Lock()
	l.ids[id] = true
	l.mu.Unlock()
}

func (l *servedBy) Accept() (net.Conn, error) {
	l.note()
	c, err := l.MemListener.Accept()
	if err != nil {
		return nil, err
	}
	return &servedConn{Conn: c, l: l}, nil
}

// alive returns how many of the noted goroutines still run.
func (l *servedBy) alive() int {
	live := liveGoroutines()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for id := range l.ids {
		if live[id] {
			n++
		}
	}
	return n
}

type servedConn struct {
	net.Conn
	l *servedBy
}

func (c *servedConn) Read(p []byte) (int, error) {
	c.l.note()
	return c.Conn.Read(p)
}

// startServedBy serves a ping handler on a fresh servedBy listener.
func startServedBy(t *testing.T) (*Server, *servedBy) {
	t.Helper()
	s := NewServer()
	s.Handle("ping", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	ln := newServedBy()
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln
}

// ping dials ln and makes one call, leaving the client open.
func ping(t *testing.T, ln *servedBy) *Client {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	c.SetTimeout(5 * time.Second)
	if err := c.Call("ping", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

// waitFor polls cond until it holds, failing after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeReusesGoroutines: 200 short connections, one after another,
// are served by at most two goroutines: the one that served the last
// connection waits for the next instead of exiting.
func TestServeReusesGoroutines(t *testing.T) {
	s, ln := startServedBy(t)
	for i := 0; i < 200; i++ {
		ping(t, ln).Close()
		waitFor(t, "the connection to end", func() bool { return s.ActiveConns() == 0 })
	}
	ln.mu.Lock()
	n := len(ln.ids) - 1 // the accept loop's is one of them
	ln.mu.Unlock()
	if n > 2 {
		t.Fatalf("200 sequential connections served by %d goroutines, want at most 2", n)
	}
}

// TestServeCapsWaitingGoroutines: once a burst of 100 concurrent
// connections has closed, maxIdleServers of their goroutines wait for
// the next connection and the others have exited.
func TestServeCapsWaitingGoroutines(t *testing.T) {
	s, ln := startServedBy(t)
	clients := burst(t, ln, 100)
	// The accept loop is noted too: it runs until Close.
	if n := ln.alive() - 1; n != 100 {
		t.Fatalf("%d goroutines serve 100 concurrent connections", n)
	}
	for _, c := range clients {
		c.Close()
	}
	waitFor(t, "the connections to end", func() bool { return s.ActiveConns() == 0 })
	waitFor(t, "idle goroutines to exit", func() bool { return ln.alive() <= maxIdleServers+1 })
	if n := ln.alive() - 1; n != maxIdleServers {
		t.Fatalf("%d serving goroutines wait after the burst, want %d", n, maxIdleServers)
	}
}

// burst opens n connections at once and makes one call on each.
func burst(t *testing.T, ln *servedBy, n int) []*Client {
	t.Helper()
	clients := make([]*Client, n)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			clients[i] = NewClient(conn)
			clients[i].SetTimeout(5 * time.Second)
			if err := clients[i].Call("ping", struct{}{}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return clients
}

// TestCloseEndsServingGoroutines: once Close returns, neither the accept
// loop nor any goroutine that served a connection runs: not those
// waiting for the next connection, nor one still serving a client.
func TestCloseEndsServingGoroutines(t *testing.T) {
	s, ln := startServedBy(t)
	for _, c := range burst(t, ln, 20) {
		c.Close()
	}
	waitFor(t, "the connections to end", func() bool { return s.ActiveConns() == 0 })
	live := ping(t, ln)
	defer live.Close()
	if ln.alive() < 2 {
		t.Fatal("no serving goroutine to end")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A goroutine whose wg.Done has run is listed until it returns.
	waitFor(t, "server goroutines to exit", func() bool { return ln.alive() == 0 })
}
