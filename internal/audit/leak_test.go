package audit

import (
	"crypto/ed25519"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/transport"
)

// dropThenErrServer is a hand-rolled domain endpoint for connection-
// lifecycle tests: the FIRST connection is closed after reading one
// request (a transport-level failure from the client's view); every
// later connection answers each request with a remote error (a healthy
// connection whose RPCs fail at the application layer).
type dropThenErrServer struct {
	ln net.Listener

	mu    sync.Mutex
	conns int
	kinds []string // kind of every request read, in order
	wg    sync.WaitGroup
}

func startDropThenErrServer(t *testing.T) *dropThenErrServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &dropThenErrServer{ln: ln}
	s.wg.Add(1)
	go s.loop()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *dropThenErrServer) dials() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns
}

func (s *dropThenErrServer) seenKinds() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.kinds...)
}

func (s *dropThenErrServer) loop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns++
		dropIt := s.conns == 1
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer c.Close()
			for {
				_, frame, err := transport.ReadFrameHeader(c)
				if err != nil {
					return
				}
				var req transport.Request
				if err := json.Unmarshal(frame, &req); err != nil {
					return
				}
				s.mu.Lock()
				s.kinds = append(s.kinds, req.Kind)
				s.mu.Unlock()
				if dropIt {
					return // close mid-call: transport failure
				}
				out, _ := json.Marshal(&transport.Response{ID: req.ID, OK: false, Error: "always refused"})
				if err := transport.WriteFrame(c, out); err != nil {
					return
				}
			}
		}()
	}
}

// TestClientEvictsBrokenConns is the connection-hygiene test for
// audit.Client: a transport failure evicts the connection (the managed
// endpoint redials instead of reusing a dead socket — for the idempotent
// status read, inside the same call), while a server-answered error
// keeps the healthy connection.
func TestClientEvictsBrokenConns(t *testing.T) {
	srv := startDropThenErrServer(t)
	addr := srv.ln.Addr().String()
	params := Params{Domains: []DomainInfo{{Name: "d", Addr: addr}}}
	c := NewClient(params)
	defer c.Close()

	// Call 1: the server kills the connection mid-call. The broken
	// connection must be evicted and the read retried on a fresh one,
	// which answers with the remote refusal.
	_, err := c.FetchStatus("d")
	if err == nil || !strings.Contains(err.Error(), "always refused") {
		t.Fatalf("FetchStatus over a dropped connection = %v, want the remote refusal (proving a redial happened)", err)
	}
	c.mu.Lock()
	m := c.endpoints[addr]
	c.mu.Unlock()
	if dials, retries, _ := m.Stats(); dials != 2 || retries != 1 {
		t.Fatalf("dials=%d retries=%d after one reset, want 2 and 1", dials, retries)
	}

	// Calls 2 and 3: remote errors must NOT evict — both ride the
	// connection call 1 ended on.
	for i := 2; i <= 3; i++ {
		if _, err := c.FetchStatus("d"); err == nil || !strings.Contains(err.Error(), "always refused") {
			t.Fatalf("FetchStatus #%d = %v, want the remote refusal", i, err)
		}
	}
	if d := srv.dials(); d != 2 {
		t.Fatalf("server saw %d connections, want 2 (evict+redial once, then reuse)", d)
	}
}

// TestClientCloseReleasesAllConns is the leak check: after Client.Close,
// the server holds zero connections from this client — nothing leaked
// from the cache, including connections used only by error paths.
func TestClientCloseReleasesAllConns(t *testing.T) {
	srv := transport.NewServer()
	srv.Handle("status", func(json.RawMessage) (any, error) {
		return domain.StatusResponse{Domain: "d"}, nil
	})
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	params := Params{Domains: []DomainInfo{{Name: "d", Addr: addr, HostKey: make(ed25519.PublicKey, ed25519.PublicKeySize)}}}
	c := NewClient(params)
	// The fetch succeeds at transport level and fails verification (no
	// host signature) — an early-return error path that must still leave
	// the connection owned by the cache, not leaked.
	if _, err := c.FetchStatus("d"); err == nil {
		t.Fatal("unverifiable status passed verification")
	}
	if n := srv.ActiveConns(); n != 1 {
		t.Fatalf("ActiveConns = %d before Close, want 1", n)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveConns = %d after Close, want 0: connections leaked", srv.ActiveConns())
		}
		time.Sleep(time.Millisecond)
	}
}
