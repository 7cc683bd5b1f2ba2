package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obsv"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes want %d", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF at end, got %v", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write accepted: %v", err)
	}
	// A hostile header announcing a huge frame must be rejected before
	// allocation.
	hostile := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile header accepted: %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

type echoReq struct {
	Text string `json:"text"`
	N    int    `json:"n"`
}

type echoResp struct {
	Text string `json:"text"`
}

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(body json.RawMessage) (any, error) {
		var req echoReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		out := req.Text
		for i := 1; i < req.N; i++ {
			out += req.Text
		}
		return echoResp{Text: out}, nil
	})
	s.Handle("fail", func(json.RawMessage) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestRPCRoundTrip(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "ab", N: 3}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "ababab" {
		t.Fatalf("got %q", resp.Text)
	}
}

func TestRPCRemoteError(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", struct{}{}, nil)
	var remote *ErrRemote
	if !errors.As(err, &remote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	if remote.Msg != "deliberate failure" {
		t.Fatalf("got %q", remote.Msg)
	}
}

func TestRPCUnknownKind(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	err := c.Call("nope", struct{}{}, nil)
	var remote *ErrRemote
	if !errors.As(err, &remote) {
		t.Fatalf("want ErrRemote for unknown kind, got %v", err)
	}
}

func TestRPCConcurrentClients(t *testing.T) {
	_, addr := startEchoServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var resp echoResp
				text := fmt.Sprintf("c%d-%d", i, j)
				if err := c.Call("echo", echoReq{Text: text, N: 1}, &resp); err != nil {
					errs <- err
					return
				}
				if resp.Text != text {
					errs <- fmt.Errorf("mismatch: %q vs %q", resp.Text, text)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRPCSharedClientConcurrency(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			text := fmt.Sprintf("g%d", i)
			if err := c.Call("echo", echoReq{Text: text, N: 2}, &resp); err != nil {
				errs <- err
				return
			}
			if resp.Text != text+text {
				errs <- fmt.Errorf("bad response %q", resp.Text)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerDropsMalformedJSON(t *testing.T) {
	_, addr := startEchoServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	// Server must close the connection rather than hang or crash.
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("server responded to malformed JSON")
	}
}

func TestServerCloseUnblocksAccept(t *testing.T) {
	s := NewServer()
	if _, err := s.ListenAndServe(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is safe.
	_ = s.Close()
}

// failOnceListener fails its first Accept with a transient error, then
// behaves as the MemListener it wraps.
type failOnceListener struct {
	*MemListener
	failed atomic.Bool
}

func (l *failOnceListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "mem", Err: syscall.EMFILE}
	}
	return l.MemListener.Accept()
}

// TestServeSurvivesTransientAcceptError: one failed Accept (EMFILE,
// ECONNABORTED) must not end the accept loop — the next connection is
// served, and the burst leaves one accept-error flight event.
func TestServeSurvivesTransientAcceptError(t *testing.T) {
	s := NewServer()
	s.Handle("ping", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	fr := obsv.NewFlightRecorder(16)
	s.SetFlightRecorder(fr)
	ln := &failOnceListener{MemListener: NewMemListener()}
	s.Serve(ln)
	defer s.Close()

	conn, err := ln.Dial() // blocks until the loop is back in Accept
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	if err := c.Call("ping", struct{}{}, nil); err != nil {
		t.Fatalf("call after a transient accept error: %v", err)
	}
	var events int
	for _, ev := range fr.Events() {
		if ev.Component == "rpc" && ev.Kind == "accept-error" {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("accept-error flight events = %d, want 1", events)
	}
}

func BenchmarkRPCEcho(b *testing.B) {
	s := NewServer()
	s.Handle("echo", func(body json.RawMessage) (any, error) {
		var req echoReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text}, nil
	})
	addr, err := s.ListenAndServe()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp echoResp
		if err := c.Call("echo", echoReq{Text: "payload"}, &resp); err != nil {
			b.Fatal(err)
		}
	}
}
