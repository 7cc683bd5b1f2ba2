package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
)

// blob is a result with a binary form: its bytes, reversed, so a body
// that took the wrong path is never mistaken for one that took the right.
type blob struct{ Data []byte }

func (b *blob) MarshalBinary() ([]byte, error) {
	out := bytes.Clone(b.Data)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return append([]byte{0xFE}, out...), nil
}

func (b *blob) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || data[0] != 0xFE {
		return errors.New("blob: not a binary form")
	}
	got, _ := (&blob{Data: data[1:]}).MarshalBinary()
	b.Data = got[1:]
	return nil
}

func TestV2EnvelopeRoundTrip(t *testing.T) {
	for _, c := range []struct {
		flags        byte
		id           uint64
		kind, errMsg string
		body         []byte
	}{
		{0, 1, "proof", "", []byte(`{"index":5}`)},
		{flagBatch, 1 << 40, BatchKind, "", appendSubRequests(nil, []Request{{Kind: "a", Body: []byte(`1`)}, {Kind: "b"}})},
		{flagReply, 7, "", "", []byte(`{"ok":true}`)},
		{flagReply | flagBinary, 7, "", "", []byte{0, 1, 2, 0xB2, '{'}},
		{flagReply | flagError, 9, "", "deliberate failure", nil},
		{flagReply, 0, "", "", nil},
	} {
		frame := append(appendEnvelope(nil, c.flags, c.id, c.kind, c.errMsg), c.body...)
		if !isV2(frame) {
			t.Fatalf("%+v: encoded frame is not recognised as v2", c)
		}
		env, err := parseEnvelope(frame)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if env.ID != c.id || env.Kind != c.kind || env.Error != c.errMsg || !bytes.Equal(env.Body, c.body) ||
			env.reply != (c.flags&flagReply != 0) || env.OK == (c.flags&flagError != 0) ||
			env.binary != (c.flags&flagBinary != 0) || env.batch != (c.flags&flagBatch != 0) {
			t.Fatalf("%+v decoded to %+v", c, env)
		}
		// Every strict prefix that cuts into the envelope's own fields fails.
		for cut := 0; cut < len(frame)-len(c.body); cut++ {
			if _, err := parseEnvelope(frame[:cut]); err == nil {
				t.Fatalf("%+v: prefix of %d bytes decoded", c, cut)
			}
		}
	}
	if _, err := parseEnvelope([]byte{markerV2, 0xF0, 1}); err == nil {
		t.Fatal("unknown envelope flags accepted")
	}
	if isV2([]byte(`{"id":1}`)) || isV2(nil) {
		t.Fatal("a v1 payload is taken for v2")
	}
}

func TestV2ContainerBounds(t *testing.T) {
	subs := []Request{{Kind: "proof", Body: []byte(`{"index":1}`)}, {Kind: "consistency", Body: []byte(`{}`)}, {Kind: ""}}
	enc := appendSubRequests(nil, subs)
	got, err := parseSubRequests(enc)
	if err != nil || len(got) != len(subs) {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].ID != uint64(i+1) || got[i].Kind != subs[i].Kind || !bytes.Equal(got[i].Body, subs[i].Body) {
			t.Fatalf("entry %d decoded to %+v", i, got[i])
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := parseContainer(enc[:cut]); err == nil {
			t.Fatalf("container truncated to %d bytes decoded", cut)
		}
	}
	if _, err := parseContainer(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A count the bytes present cannot hold, and one beyond the batch cap,
	// fail before the entry slice is made.
	if _, err := parseContainer([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Fatal("a count of 2^32 entries in five bytes accepted")
	}
	over := appendSubRequests(nil, make([]Request, MaxBatchCalls+1))
	if _, err := parseContainer(over); err == nil {
		t.Fatal("a container beyond MaxBatchCalls accepted")
	}
	// An entry length larger than what is left of the frame.
	if _, err := parseContainer([]byte{1, flagReply, 0x7F, 'x'}); err == nil {
		t.Fatal("an entry longer than the frame accepted")
	}
	// Sub-requests are plain: no reply, error or binary entries.
	if _, err := parseSubRequests([]byte{1, flagReply, 0}); err == nil {
		t.Fatal("a reply entry accepted as a sub-request")
	}
	if _, err := parseContainer([]byte{1, flagBatch, 0, 0}); err == nil {
		t.Fatal("a nested container entry accepted")
	}
}

// v2Pair is a Server (instrumented on reg, when given) with a JSON echo,
// a binary blob and a failing kind, and a Client on a connection already
// upgraded to v2.
func v2Pair(t *testing.T, reg *obsv.Registry) *Client {
	t.Helper()
	srv := NewServer()
	if reg != nil {
		srv.Instrument(reg, obsv.NewTracer(1))
	}
	srv.Handle("echo", func(body json.RawMessage) (any, error) { return body, nil })
	srv.Handle("blob", func(body json.RawMessage) (any, error) {
		var s string
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, err
		}
		return &blob{Data: []byte(s)}, nil
	})
	srv.Handle("nilblob", func(json.RawMessage) (any, error) { return (*blob)(nil), nil })
	srv.Handle("fail", func(json.RawMessage) (any, error) { return nil, errors.New("deliberate failure") })
	ln := NewMemListener()
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	c.SetTimeout(5 * time.Second)
	if err := c.Call("echo", 1, nil); err != nil || !c.v2.Load() {
		t.Fatalf("connection did not upgrade on first contact (err %v)", err)
	}
	return c
}

// TestV2BinaryBodies: on an upgraded connection a result with a binary
// form travels in it, alone and inside a batch, next to JSON bodies and
// errors; an out that cannot read it gets ErrBinaryBody naming the kind;
// a typed nil pointer is JSON null, as it is on v1.
func TestV2BinaryBodies(t *testing.T) {
	c := v2Pair(t, nil)
	var got blob
	if err := c.Call("blob", "abc", &got); err != nil || string(got.Data) != "abc" {
		t.Fatalf("binary body: %q, %v", got.Data, err)
	}
	var n int
	if err := c.Call("echo", 42, &n); err != nil || n != 42 {
		t.Fatalf("JSON body on a v2 connection: %d, %v", n, err)
	}
	var remote *ErrRemote
	if err := c.Call("fail", nil, nil); !errors.As(err, &remote) || remote.Msg != "deliberate failure" {
		t.Fatalf("error reply on a v2 connection: %v", err)
	}
	var typed *ErrBinaryBody
	var wrong struct{ Data []byte }
	if err := c.Call("blob", "abc", &wrong); !errors.As(err, &typed) || typed.Kind != "blob" || wrong.Data != nil {
		t.Fatalf("binary body into a plain struct: %v (out %+v)", err, wrong)
	}
	if err := c.Call("blob", "abc", nil); err != nil {
		t.Fatalf("discarding a binary body: %v", err)
	}
	got = blob{Data: []byte("untouched")}
	if err := c.Call("nilblob", nil, &got); err != nil || string(got.Data) != "untouched" {
		t.Fatalf("typed nil result: %q, %v", got.Data, err)
	}

	res, err := c.CallBatch([]BatchCall{{Kind: "blob", In: "xyz"}, {Kind: "echo", In: 7}, {Kind: "fail"}, {Kind: "nope"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res[0].Decode(&got); err != nil || string(got.Data) != "xyz" {
		t.Fatalf("binary body in a batch: %q, %v", got.Data, err)
	}
	if err := res[0].Decode(&wrong); !errors.As(err, &typed) || typed.Kind != "blob" {
		t.Fatalf("binary batch result into a plain struct: %v", err)
	}
	if err := res[1].Decode(&n); err != nil || n != 7 {
		t.Fatalf("JSON body in a batch: %d, %v", n, err)
	}
	if !errors.As(res[2].Err, &remote) || remote.Msg != "deliberate failure" {
		t.Fatalf("error entry in a batch: %v", res[2].Err)
	}
	if !errors.As(res[3].Err, &remote) || !strings.Contains(remote.Msg, "unknown request kind") {
		t.Fatalf("unknown kind in a batch: %v", res[3].Err)
	}
	// A JSON list sent by hand through Call is not a container: refused
	// by the server, in words, never mis-decoded.
	if err := c.Call(BatchKind, []Request{{ID: 1, Kind: "echo"}}, nil); !errors.As(err, &remote) || !strings.Contains(remote.Msg, "malformed batch body") {
		t.Fatalf("hand-rolled JSON batch on a v2 connection: %v", err)
	}
}

// TestFramesAroundTheReadBuffer: both readers read through a bufio.Reader
// of readBufferSize. Frames that end just short of it, on it and past it,
// and one far larger (whose remainder is read straight into its own
// slice), arrive intact in both directions, pipelined back to back, on
// first contact (v1) and once upgraded.
func TestFramesAroundTheReadBuffer(t *testing.T) {
	sizes := []int{readBufferSize - 64, readBufferSize - 5, readBufferSize - 4, readBufferSize, readBufferSize + 1, 3*readBufferSize + 17, 1 << 20}
	for _, upgraded := range []bool{false, true} {
		for _, size := range sizes {
			var c *Client
			if upgraded {
				c = v2Pair(t, nil)
			} else {
				srv := NewServer()
				srv.Handle("echo", func(body json.RawMessage) (any, error) { return body, nil })
				ln := NewMemListener()
				srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })
				conn, err := ln.Dial()
				if err != nil {
					t.Fatal(err)
				}
				c = NewClient(conn)
				t.Cleanup(func() { c.Close() })
				c.SetTimeout(5 * time.Second)
			}
			want := strings.Repeat("x", size)
			results := make(chan error, 3)
			for i := 0; i < 3; i++ { // three in flight: frames share reads
				go func() {
					var got string
					err := c.Call("echo", want, &got)
					if err == nil && got != want {
						err = fmt.Errorf("echo of %d bytes came back as %d", len(want), len(got))
					}
					results <- err
				}()
			}
			for i := 0; i < 3; i++ {
				if err := <-results; err != nil {
					t.Fatalf("upgraded=%v size=%d: %v", upgraded, size, err)
				}
			}
		}
	}
}

// TestUnknownKindsShareOneLabel: the request kind is the peer's string.
// Ten thousand distinct unregistered kinds, alone and inside batches,
// must leave the registry with the series that one of them created.
func TestUnknownKindsShareOneLabel(t *testing.T) {
	reg := obsv.NewRegistry()
	c := v2Pair(t, reg)
	if err := c.Call("bogus-first", nil, nil); err == nil {
		t.Fatal("an unregistered kind was answered")
	}
	if _, err := c.CallBatch([]BatchCall{{Kind: "bogus-in-batch"}}); err != nil {
		t.Fatal(err)
	}
	before := len(reg.Snapshot())
	if reg.Value(`rpc_requests_total{kind="_unknown"}`) != 2 || reg.Value(`rpc_errors_total{kind="_unknown"}`) != 2 {
		t.Fatalf("unregistered kinds are not counted under _unknown: %v", reg.Snapshot())
	}
	calls := make([]BatchCall, 500)
	for i := 0; i < 10; i++ {
		for j := range calls {
			calls[j].Kind = fmt.Sprintf("bogus-%d-%d", i, j)
		}
		if _, err := c.CallBatch(calls); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 500; j++ {
			if err := c.Call(fmt.Sprintf("bogus-alone-%d-%d", i, j), nil, nil); err == nil {
				t.Fatal("an unregistered kind was answered")
			}
		}
	}
	if after := len(reg.Snapshot()); after != before {
		t.Fatalf("10000 distinct unregistered kinds grew the registry from %d to %d series", before, after)
	}
	if got := reg.Value(`rpc_requests_total{kind="_unknown"}`); got != 10002 {
		t.Fatalf("rpc_requests_total{_unknown} = %v, want 10002", got)
	}
}

// FuzzFrameV2 feeds arbitrary payloads to every v2 decoder on both ends:
// the envelope parser, the container parser, the server's request parser
// and dispatch, and the client's frame router with a call pending and a
// push callback installed. Nothing may panic, a decoded container never
// exceeds the batch cap, the server's verdict on a request frame is a
// reply frame the envelope parser accepts, and the pending call receives
// at most one reply, addressed to it.
func FuzzFrameV2(f *testing.F) {
	subs := appendSubRequests(nil, []Request{{Kind: "echo", Body: []byte(`1`)}, {Kind: "nope"}, {Kind: BatchKind}})
	f.Add(append(appendEnvelope(nil, 0, 1, "echo", ""), `{"x":1}`...))
	f.Add(append(appendEnvelope(nil, flagBatch, 2, BatchKind, ""), subs...))
	f.Add(append(appendEnvelope(nil, 0, 3, BatchKind, ""), `[{"id":1,"kind":"echo"}]`...))
	f.Add(append(appendEnvelope(nil, flagReply, 1, "", ""), `{"heads":[]}`...))
	f.Add(append(appendEnvelope(nil, flagReply|flagBinary, 1, "", ""), 0xFE, 'a', 'b'))
	f.Add(appendEnvelope(nil, flagReply|flagError, 1, "", "denied"))
	f.Add(append(appendEnvelope(nil, flagReply|flagBatch, 1, "", ""), 2, flagReply, 1, '1', flagReply|flagError, 2, 'n', 'o', 0))
	f.Add(append(appendEnvelope(nil, flagBatch, 0, BatchKind, ""), subs...)) // a push
	f.Add(append(appendEnvelope(nil, flagBatch, 0, BatchKind, ""), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))
	f.Add([]byte{markerV2})
	f.Add([]byte{markerV2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte(`{"id":1,"kind":"echo","v":2}`))

	srv := NewServer()
	srv.Handle("echo", func(body json.RawMessage) (any, error) { return body, nil })
	srv.Handle("blob", func(body json.RawMessage) (any, error) { return &blob{Data: body}, nil })

	f.Fuzz(func(t *testing.T, data []byte) {
		if env, err := parseEnvelope(data); err == nil {
			if len(env.Body) > len(data) {
				t.Fatalf("envelope %+v out of a %d-byte frame", env, len(data))
			}
		}
		if entries, err := parseContainer(data); err == nil && len(entries) > MaxBatchCalls {
			t.Fatalf("container of %d entries exceeds the cap", len(entries))
		}

		// Server end.
		if req, _, err := parseRequest(data); err == nil {
			for _, v2 := range []bool{false, true} {
				resp := srv.dispatchConn(context.Background(), req, nil, &replyEncoding{v2: v2})
				if resp == nil || resp.ID != req.ID {
					t.Fatalf("dispatch answered %+v to request %d", resp, req.ID)
				}
				frame, err := appendReplyFrame(nil, resp, v2)
				if err != nil {
					continue // v1 only: a body the JSON envelope cannot wrap
				}
				payload, err := ReadFrame(bytes.NewReader(frame))
				if err != nil {
					t.Fatalf("reply frame does not read back: %v", err)
				}
				if v2 {
					if env, err := parseEnvelope(payload); err != nil || !env.reply || env.ID != req.ID {
						t.Fatalf("v2 reply does not decode: %+v, %v", env, err)
					}
				}
			}
		}

		// Client end.
		c := &Client{pending: make(map[uint64]chan *envelope), onPush: func(subs []Request) {
			if len(subs) > MaxBatchCalls {
				t.Fatalf("push of %d sub-requests exceeds the cap", len(subs))
			}
		}}
		reply := make(chan *envelope, 2)
		c.pending[1] = reply
		c.route(data)
		c.route(data) // duplicated delivery
		if len(reply) > 1 {
			t.Fatalf("pending call received %d replies", len(reply))
		}
		if len(reply) == 1 {
			env := <-reply
			if env.ID != 1 || !env.reply {
				t.Fatalf("pending call 1 received a frame not addressed to it: %+v", env)
			}
			var out blob
			_ = decodeBody("fuzz", env.Body, env.binary, &out)
			if env.batch {
				_, _ = parseContainer(env.Body)
			}
		}
	})
}
