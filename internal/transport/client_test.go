package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeClient returns a Client on one end of an in-memory connection and
// the other end for the test to play server on. net.Pipe writes block
// until read, so a test that writes a frame knows the client's reader
// has taken it once WriteFrame returns.
func pipeClient(t *testing.T, onPush func([]Request)) (*Client, net.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	c := NewPushClient(cli, onPush)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		<-c.Done()
	})
	return c, srv
}

func readRequest(t *testing.T, conn net.Conn) Request {
	t.Helper()
	frame, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("fake server read: %v", err)
	}
	var req Request
	if err := json.Unmarshal(frame, &req); err != nil {
		t.Fatalf("fake server decode: %v", err)
	}
	return req
}

func writeReply(t *testing.T, conn net.Conn, id uint64, text string) {
	t.Helper()
	body, _ := json.Marshal(echoResp{Text: text})
	out, _ := json.Marshal(&Response{ID: id, OK: true, Body: body})
	if err := WriteFrame(conn, out); err != nil {
		t.Fatalf("fake server write: %v", err)
	}
}

type callResult struct {
	text string
	err  error
}

// echoAsync issues one echo call from its own goroutine, so the test's
// goroutine is free to play the server.
func echoAsync(c *Client, text string) <-chan callResult {
	ch := make(chan callResult, 1)
	go func() {
		var resp echoResp
		err := c.Call("echo", echoReq{Text: text}, &resp)
		ch <- callResult{resp.Text, err}
	}()
	return ch
}

// TestClientSurvivesTimeout: a call that times out costs only itself.
// The server's late answer to it is dropped by ID, and the next call on
// the SAME client gets its own reply, not the stale one.
func TestClientSurvivesTimeout(t *testing.T) {
	c, srv := pipeClient(t, nil)
	c.SetTimeout(50 * time.Millisecond)
	timedOut := echoAsync(c, "first")
	first := readRequest(t, srv)
	var nerr net.Error
	if r := <-timedOut; !errors.As(r.err, &nerr) || !nerr.Timeout() {
		t.Fatalf("call to a silent server: err = %v, want a timeout", r.err)
	}

	c.SetTimeout(5 * time.Second)
	next := echoAsync(c, "second")
	writeReply(t, srv, first.ID, "late answer to the first call")
	second := readRequest(t, srv)
	writeReply(t, srv, second.ID, "second")
	if r := <-next; r.err != nil {
		t.Fatalf("call after a timeout on the same client: %v", r.err)
	} else if r.text != "second" {
		t.Fatalf("second call received %q: the late reply was mis-delivered", r.text)
	}
}

// TestClientRoutesRepliesByID: two calls in flight, answered in reverse
// order, each get their own reply.
func TestClientRoutesRepliesByID(t *testing.T) {
	c, srv := pipeClient(t, nil)
	c.SetTimeout(5 * time.Second)
	results := map[string]<-chan callResult{"a": echoAsync(c, "a"), "b": echoAsync(c, "b")}
	reqs := []Request{readRequest(t, srv), readRequest(t, srv)}
	for i := len(reqs) - 1; i >= 0; i-- {
		var in echoReq
		if err := json.Unmarshal(reqs[i].Body, &in); err != nil {
			t.Fatal(err)
		}
		writeReply(t, srv, reqs[i].ID, "reply to "+in.Text)
	}
	for name, ch := range results {
		if r := <-ch; r.err != nil || r.text != "reply to "+name {
			t.Fatalf("caller %s got (%q, %v)", name, r.text, r.err)
		}
	}
}

// TestClientConnectionDeathFailsPending: when the connection dies every
// pending call fails with the read error, later calls fail at once, and
// the reader goroutine is gone once Done closes.
func TestClientConnectionDeathFailsPending(t *testing.T) {
	c, srv := pipeClient(t, nil)
	pending := []<-chan callResult{echoAsync(c, "x"), echoAsync(c, "y"), echoAsync(c, "z")}
	for range pending {
		readRequest(t, srv)
	}
	srv.Close()
	for _, ch := range pending {
		select {
		case r := <-ch:
			if !errors.Is(r.err, io.EOF) {
				t.Fatalf("pending call on a dead connection: err = %v, want the read error (EOF)", r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending call still blocked after its connection died")
		}
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("reader goroutine still running after its connection died")
	}
	if c.Err() == nil {
		t.Fatal("Err is nil after the connection died")
	}
	if err := c.Call("echo", echoReq{}, nil); err == nil {
		t.Fatal("call on a dead client returned nil")
	}
}

// TestClientCloseStopsReader: Close on a healthy, idle connection ends
// the reader.
func TestClientCloseStopsReader(t *testing.T) {
	c, _ := pipeClient(t, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the reader goroutine running")
	}
}

// TestClientPushDelivery: a pushed frame reaches the callback fixed at
// construction with its sub-requests decoded, and a client built
// without one drops the frame and keeps working.
func TestClientPushDelivery(t *testing.T) {
	push, _ := json.Marshal(&Request{ID: 0, Kind: BatchKind, Body: json.RawMessage(`[{"id":1,"kind":"notify","body":{"seq":7}}]`)})
	for _, withCallback := range []bool{true, false} {
		got := make(chan []Request, 1)
		var onPush func([]Request)
		if withCallback {
			onPush = func(subs []Request) { got <- subs }
		}
		c, srv := pipeClient(t, onPush)
		c.SetTimeout(5 * time.Second)
		if err := WriteFrame(srv, push); err != nil {
			t.Fatal(err)
		}
		call := echoAsync(c, "x")
		writeReply(t, srv, readRequest(t, srv).ID, "after the push")
		if r := <-call; r.err != nil || r.text != "after the push" {
			t.Fatalf("callback=%v: call after a pushed frame: (%q, %v)", withCallback, r.text, r.err)
		}
		if !withCallback {
			continue
		}
		subs := <-got // the one reader delivered it before it read the reply
		if len(subs) != 1 || subs[0].Kind != "notify" || string(subs[0].Body) != `{"seq":7}` {
			t.Fatalf("push callback got %+v", subs)
		}
	}
}

// TestClientRequestBytes pins what a Client puts on the wire toward a
// peer that has not shown wire v2: for a sequence of calls, exactly the
// frames the lock-step client wrote — a classic length-prefixed frame
// holding Request{ID: 1, 2, 3...} — plus the one field that offers v2,
// and nothing else (no header section without a trace).
func TestClientRequestBytes(t *testing.T) {
	c, srv := pipeClient(t, nil)
	c.SetTimeout(5 * time.Second)
	for id, text := range []string{"", "a", `needs "escaping" <&>`} {
		call := echoAsync(c, text)
		body, _ := json.Marshal(echoReq{Text: text})
		payload, _ := json.Marshal(&Request{ID: uint64(id + 1), Kind: "echo", Body: body})
		want := frame(append(payload[:len(payload)-1], `,"v":2}`...))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(srv, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d wrote\n%q\nwant\n%q", id+1, got, want)
		}
		writeReply(t, srv, uint64(id+1), "ok")
		if r := <-call; r.err != nil {
			t.Fatal(r.err)
		}
	}
}
