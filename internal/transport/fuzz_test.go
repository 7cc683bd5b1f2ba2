package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// frame length-prefixes a payload the way WriteFrame does, without the
// size cap, so fuzzing can construct adversarial headers too.
func frame(payload []byte) []byte {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	return buf
}

// FuzzReadFrame hammers the wire decoder with raw bytes: whatever a peer
// sends, ReadFrame must return (payload, nil), a clean error, or EOF —
// never panic and never allocate beyond the frame cap.
func FuzzReadFrame(f *testing.F) {
	// Well-formed envelopes, including the _batch and gossip kinds the
	// daemons now exchange.
	seedBodies := [][]byte{
		[]byte(`{"id":1,"kind":"status","body":{"nonce":"AAAA"}}`),
		[]byte(`{"id":2,"kind":"_batch","body":[{"id":1,"kind":"head","body":{}},{"id":2,"kind":"headbls","body":{}}]}`),
		[]byte(`{"id":3,"kind":"gossip_heads","body":{"from":"w1","heads":[{"source":"mon","head":{"size":4,"head":[1,2],"signature":"qqq"}}]}}`),
		[]byte(`{"id":4,"kind":"pollinate","body":{"heads":[]}}`),
		[]byte(`{"id":5,"kind":"cosign","body":{"source":"mon","head":{"size":9}}}`),
		[]byte(`{"id":6,"kind":"consistency","body":{"old_size":-1}}`),
	}
	for _, b := range seedBodies {
		f.Add(frame(b))
	}
	// Adversarial shapes: truncated header, truncated payload, oversized
	// announcement, zero-length frame, trailing garbage.
	f.Add([]byte{0x00, 0x00})
	f.Add(frame(nil))
	f.Add(append(frame([]byte(`{}`)), 0xff, 0xfe))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, MaxFrameSize+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := ReadFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, ErrFrameTooLarge) {
				return
			}
			return // wrapped read errors are fine; panics are not
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("decoded frame of %d bytes exceeds cap", len(payload))
		}
		// Round trip: what decoded must re-encode and decode identically.
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("re-encoding decoded frame: %v", err)
		}
		again, err := ReadFrame(&out)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("frame round trip diverged: %v", err)
		}
	})
}

// request is a v2 request envelope with the given body: a container of
// subs when kind is _batch.
func request(id uint64, kind string, body []byte, subs ...Request) []byte {
	if kind == BatchKind {
		return appendSubRequests(appendEnvelope(nil, flagBatch, id, kind, ""), subs)
	}
	return append(appendEnvelope(nil, 0, id, kind, ""), body...)
}

// FuzzDispatch runs raw request payloads — including nested _batch
// containers, the gossip kinds and binary request bodies — through the
// server's request parser and dispatch path. The server must answer
// every request the parser accepts (serveConn drops the connection only
// on a frame it rejects) without panicking, and a binary body sent to a
// kind that reads only JSON is an error reply. Every seed is a request
// the parser accepts.
func FuzzDispatch(f *testing.F) {
	f.Add(request(1, "echo", []byte(`{"x":1}`)))
	f.Add(request(2, BatchKind, nil, Request{Kind: "echo", Body: []byte("null")}, Request{Kind: "missing"}))
	f.Add(request(3, BatchKind, nil, Request{Kind: BatchKind, Body: appendSubRequests(nil, nil)}))
	f.Add(append(appendEnvelope(nil, flagBatch, 4, BatchKind, ""), `"not-a-list"`...))
	f.Add(request(5, "gossip_heads", []byte(`{"heads":[{"source":"mon","head":{"size":18446744073709551615}}]}`)))
	f.Add(request(6, "pollinate", []byte(`{"heads":[{"cosigs":[{"witness":"AA","sig":null}]}]}`)))
	f.Add(request(7, "nobatch", []byte(`{}`)))
	f.Add(request(8, "echo", []byte(`not json at all`)))
	f.Add(request(8, "echo", []byte(`{"x":`)))
	// Binary request bodies (the marker, then a form) to JSON-only kinds,
	// alone and inside a _batch.
	binaryBody := []byte{markerV2, 0x05, 0xAC, 0x02}
	f.Add(request(9, "gossip_heads", binaryBody))
	f.Add(request(10, "decoded", binaryBody))
	f.Add(request(11, "echo", binaryBody))
	f.Add(request(12, "decoded", []byte{markerV2}))
	f.Add(request(13, BatchKind, nil,
		Request{Kind: "decoded", Body: binaryBody}, Request{Kind: "gossip_heads", Body: binaryBody}, Request{Kind: "pollinate", Body: []byte{markerV2}}))
	f.Add(request(14, "decoded", []byte(`{"heads":[]}`)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		srv := NewServer()
		srv.Handle("echo", func(body json.RawMessage) (any, error) {
			return body, nil
		})
		srv.Handle("gossip_heads", func(body json.RawMessage) (any, error) {
			var msg struct {
				Heads []struct {
					Source string `json:"source"`
				} `json:"heads"`
			}
			if err := json.Unmarshal(body, &msg); err != nil {
				return nil, err
			}
			return map[string]int{"heads": len(msg.Heads)}, nil
		})
		srv.Handle("pollinate", func(body json.RawMessage) (any, error) {
			return map[string]any{}, nil
		})
		srv.HandleNoBatch("nobatch", func(json.RawMessage) (any, error) {
			return nil, nil
		})
		srv.Handle("decoded", func(body json.RawMessage) (any, error) {
			var msg struct {
				Heads []string `json:"heads"`
			}
			if err := DecodeBody(body, &msg); err != nil {
				return nil, err
			}
			return len(msg.Heads), nil
		})

		req, err := parseRequest(raw)
		if err != nil {
			return // serveConn drops what it cannot parse; nothing to check
		}
		resp := srv.dispatch(req)
		if resp == nil {
			t.Fatal("dispatch returned nil response")
		}
		if resp.ID != req.ID {
			t.Fatalf("response ID %d for request %d", resp.ID, req.ID)
		}
		if _, err := appendReplyFrame(nil, resp); err != nil {
			t.Fatalf("response does not frame: %v", err)
		}
		// The kinds that read their body must refuse a binary one, alone
		// or as a _batch entry.
		readsBody := map[string]bool{"echo": true, "gossip_heads": true, "decoded": true}
		if readsBody[req.Kind] && isV2(req.Body) && resp.OK {
			t.Fatalf("%s answered a binary request body: %s", req.Kind, resp.Body)
		}
		if req.Kind == BatchKind && resp.OK {
			subs, _ := parseSubRequests(nil, req.Body)
			entries, err := parseContainer(resp.Body)
			if err != nil || !resp.container || len(entries) != len(subs) {
				t.Fatalf("batch of %d answered with %d entries (%v)", len(subs), len(entries), err)
			}
			for i := range subs {
				if readsBody[subs[i].Kind] && isV2(subs[i].Body) && entries[i].flags&flagError == 0 {
					t.Fatalf("batch entry %d: %s answered a binary request body", i, subs[i].Kind)
				}
			}
		}
	})
}

// FuzzSubscribeFrame feeds raw frames to the client's frame router, the
// one function that decides what a received frame is. The seeds are the
// frames a subscription sees (acks, pushes of push_heads, nested and
// stray pushes) and garbage. Every frame is delivered twice, with one
// call pending on ID 1: nothing may panic, and the pending call may
// receive at most one reply and only one addressed to its own ID.
func FuzzSubscribeFrame(f *testing.F) {
	const head7 = `{"source":"mon","head":{"size":7,"head":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"signature":null}}`
	const head3 = `{"source":"mon","head":{"size":3,"head":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"signature":null}}`
	push := func(subs ...Request) []byte { return request(0, BatchKind, nil, subs...) }
	pushOne := push(Request{Kind: "push_heads", Body: []byte(`{"from":"mon","heads":[` + head7 + `]}`)})
	// Well-formed subscription ack, the same ack truncated, an error ack.
	ack := append(appendEnvelope(nil, flagReply, 1, "", ""), `{"heads":[`+head7+`]}`...)
	f.Add(ack)
	f.Add(ack[:len(ack)/2])
	f.Add(appendEnvelope(nil, flagReply|flagError, 2, "", "denied"))
	// Push frame carrying two heads, one a regression.
	f.Add(push(Request{Kind: "push_heads", Body: []byte(`{"from":"mon","heads":[` + head7 + `,` + head3 + `]}`)}))
	// Nested _batch push frame (batch inside a batch).
	f.Add(push(Request{Kind: BatchKind, Body: pushOne}))
	// Non-batch push kind, an envelope with nothing after the marker, a
	// reply cut off after its flags, raw garbage.
	f.Add(request(9, "push_heads", []byte(`{"from":"x","heads":[`+head7+`]}`)))
	f.Add([]byte{markerV2})
	f.Add([]byte{markerV2, flagReply})
	f.Add([]byte{0xff, 0x00, 0x42})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Client{pending: make(map[uint64]chan *envelope), onPush: func(subs []Request) {
			if len(subs) > MaxBatchCalls {
				t.Fatalf("push of %d sub-requests exceeds the cap", len(subs))
			}
		}}
		// One slot more than the one reply allowed, so a second delivery
		// shows here instead of blocking the router.
		reply := make(chan *envelope, 2)
		c.pending[1] = reply
		c.route(data)
		c.route(data) // duplicated delivery
		delivered := len(reply)
		if delivered > 1 {
			t.Fatalf("pending call received %d replies", delivered)
		}
		if _, waiting := c.pending[1]; waiting == (delivered == 1) {
			t.Fatalf("call 1: delivered=%d but still pending=%v", delivered, waiting)
		}
		if delivered == 1 {
			if env := <-reply; env.ID != 1 || env.Kind != "" {
				t.Fatalf("pending call 1 received a frame not addressed to it: %+v", env)
			}
		}
	})
}

// FuzzParseRequestV1 checks the refusal that replaced the v1 request
// scanner. Its seeds are the request shapes a wire-v1 client wrote, the
// ones that scanner was differentially fuzzed on; mutated from them,
// every frame that does not begin with markerV2 must be refused by
// parseRequest (serveConn then drops the connection), and one that does
// must be accepted exactly when it is a well-formed request envelope.
func FuzzParseRequestV1(f *testing.F) {
	for _, s := range []string{
		`{"id":1,"kind":"audit","body":{"nonce":"AAAA"},"v":2}`,
		`{"id":18446744073709551615,"kind":"k","v":1}`,
		`{"id":0,"kind":""}`,
		`{"id":7,"kind":"x","body":null}`,
		`{"id":7,"kind":"x","body":"a,\"v\":3","v":2}`,
		`{"id":7,"kind":"x","body":{"a":1,"v":2}}`,
		`{"id":7,"kind":"x","body":{"a":{"b":1,"v":7}}`,
		`{"id":7,"kind":"x","body":{"b":1,"v":7}`,
		`{"id":7,"kind":"x","body":[1, 2] ,"v":2}`,
		`{"id":07,"kind":"x"}`,
		`{"id":7,"kind":"xA","v":2}`,
		`{"ID":7,"kind":"x"}`,
		`{"id":7,"kind":"x","v":2,"v":3}`,
		`{"id":7,"kind":"x","v":-2}`,
		`{"id":7,"kind":"x","v":99999999999}`,
		`{"id":7,"kind":"x"} `,
		`{"id":7,"kind":"x","body":1e3}`,
	} {
		f.Add([]byte(s))
	}
	for _, req := range []Request{
		{ID: 1, Kind: "audit", Body: json.RawMessage(`{"nonce":"3q2+7w==","history":true}`)},
		{ID: 2, Kind: "invoke", Body: json.RawMessage(`{"request":"AgAAAAAAAAAAaGk="}`)},
		{ID: 3, Kind: "status"},
		{ID: 4, Kind: "k<&>", Body: json.RawMessage(`"<a&b>"`)},
	} {
		raw, err := json.Marshal(&req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(raw[:len(raw)-1], `,"v":3}`...)) // with the offer a v2-capable client carried
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseRequest(data)
		if !isV2(data) {
			if err == nil {
				t.Fatalf("%q: a frame without the v2 marker parsed as %+v", data, req)
			}
			return
		}
		env, envErr := parseEnvelope(data)
		plain := envErr == nil && !env.reply && !env.binary && env.OK && env.batch == (env.Kind == BatchKind)
		if (err == nil) != plain {
			t.Fatalf("%q: parseRequest error %v, envelope %+v (error %v)", data, err, env, envErr)
		}
	})
}
