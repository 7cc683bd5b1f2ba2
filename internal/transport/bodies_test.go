package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder keeps what crosses one connection in each direction.
type recorder struct {
	net.Conn
	mu      sync.Mutex
	out, in bytes.Buffer
}

func (c *recorder) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recorder) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// frames returns the payloads written and read so far.
func (c *recorder) frames() (written, read [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return splitFrames(c.out.Bytes()), splitFrames(c.in.Bytes())
}

// pair is a request with a binary form: two uvarints, the way serve's
// request forms look.
type pair struct {
	A int `json:"a"`
	B int `json:"b"`
}

func (p pair) AppendBinary(b []byte) ([]byte, error) {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(p.A)), uint64(p.B)), nil
}

func (p *pair) UnmarshalBinary(data []byte) error {
	a, n := binary.Uvarint(data)
	if n <= 0 {
		return errors.New("pair: truncated")
	}
	b, m := binary.Uvarint(data[n:])
	if m <= 0 || n+m != len(data) {
		return errors.New("pair: truncated or trailing bytes")
	}
	*p = pair{A: int(a), B: int(b)}
	return nil
}

// bodiesServer answers "sum" with the sum of a pair it reads either way
// and records whether the body it got was binary; "json" reads a plain
// struct and so cannot take a binary body.
func bodiesServer(t *testing.T) (*MemListener, func() []bool) {
	t.Helper()
	var seen []bool // guarded by the serve loop: one request at a time
	srv := NewServer()
	srv.Handle("sum", func(body json.RawMessage) (any, error) {
		seen = append(seen, isV2(body))
		var p pair
		if err := DecodeBody(body, &p); err != nil {
			return nil, err
		}
		return p.A + p.B, nil
	})
	srv.Handle("json", func(body json.RawMessage) (any, error) {
		var p struct{ A, B int }
		if err := DecodeBody(body, &p); err != nil {
			return nil, err
		}
		return p.A + p.B, nil
	})
	ln := NewMemListener()
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln, func() []bool { return seen }
}

// splitFrames returns the payloads of the whole frames in a byte stream.
func splitFrames(stream []byte) (payloads [][]byte) {
	r := bytes.NewReader(stream)
	for {
		payload, err := ReadFrame(r)
		if err != nil {
			return payloads
		}
		payloads = append(payloads, payload)
	}
}

// TestBinaryRequestBodiesFromFirstFrame: from a fresh connection's
// first request on, every frame either way is wire v2, and an In with a
// binary form goes out as the marker and that form, alone and inside a
// _batch, while an In without one, and a typed nil, stay JSON. The
// handler decodes both forms to the same value. A binary body sent to a
// kind that reads only JSON is an error reply naming the problem, and
// the connection carries on.
func TestBinaryRequestBodiesFromFirstFrame(t *testing.T) {
	ln, seen := bodiesServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	wire := &recorder{Conn: conn}
	c := NewClient(wire)
	defer c.Close()
	c.SetTimeout(5 * time.Second)

	sum := func(in any) int {
		t.Helper()
		var n int
		if err := c.Call("sum", in, &n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := sum(pair{A: 2, B: 3}); got != 5 {
		t.Fatalf("first contact: sum %d", got)
	}
	if got := sum(pair{A: -7, B: 1 << 40}); got != 1<<40-7 {
		t.Fatalf("binary body decoded to the sum %d", got)
	}
	if got := sum(map[string]int{"a": 4, "b": 5}); got != 9 {
		t.Fatalf("JSON body: %d", got)
	}
	if got := sum((*pair)(nil)); got != 0 {
		t.Fatalf("typed nil: %d", got)
	}
	res, err := c.CallBatch([]BatchCall{{Kind: "sum", In: pair{A: 1, B: 1}}, {Kind: "sum", In: &pair{A: 20, B: 22}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 42} {
		var n int
		if err := res[i].Decode(&n); err != nil || n != want {
			t.Fatalf("batch entry %d: %d, %v", i, n, err)
		}
	}
	var remote *ErrRemote
	if err := c.Call("json", pair{A: 1, B: 2}, nil); !errors.As(err, &remote) || !strings.Contains(remote.Msg, "request body is binary") {
		t.Fatalf("binary body to a JSON-only kind: %v", err)
	}
	if got := sum(pair{A: 30, B: 12}); got != 42 {
		t.Fatalf("the call after a refused body: %d", got)
	}

	if got, want := fmt.Sprint(seen()), "[true true false false true true true]"; got != want {
		t.Fatalf("handler saw binary bodies %s, want %s", got, want)
	}
	written, read := wire.frames()
	if len(written) != 7 || len(read) != 7 {
		t.Fatalf("%d requests and %d replies, want 7 and 7", len(written), len(read))
	}
	for i := range written {
		if _, err := parseRequest(written[i]); err != nil {
			t.Fatalf("request %d is not a v2 request: %v (%q)", i, err, written[i])
		}
		if env, err := parseEnvelope(read[i]); err != nil || !env.reply {
			t.Fatalf("reply %d is not a v2 reply: %+v, %v", i, env, err)
		}
	}
}

// TestDecodeBody: JSON and the marked binary form decode to the same
// value; a binary body for an out without UnmarshalBinary is an
// *ErrBinaryBody and leaves the out alone; a malformed binary body is
// the type's own error.
func TestDecodeBody(t *testing.T) {
	want := pair{A: 3, B: -4}
	bin, _ := want.AppendBinary([]byte{markerV2})
	js, _ := json.Marshal(want)
	for _, body := range [][]byte{bin, js} {
		var got pair
		if err := DecodeBody(body, &got); err != nil || got != want {
			t.Fatalf("DecodeBody(%q) = %+v, %v", body, got, err)
		}
	}
	plain := struct{ A int }{A: 9}
	var typed *ErrBinaryBody
	if err := DecodeBody(bin, &plain); !errors.As(err, &typed) || typed.Kind != "" || plain.A != 9 {
		t.Fatalf("binary body into a plain struct: %v (out %+v)", err, plain)
	}
	var got pair
	if err := DecodeBody(bin[:len(bin)-1], &got); err == nil {
		t.Fatal("a truncated binary body decoded")
	}
	if err := DecodeBody([]byte{markerV2}, &got); err == nil {
		t.Fatal("a marker with no form decoded")
	}
}
