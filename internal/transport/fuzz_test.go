package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
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

// FuzzDispatch runs raw request payloads of either wire version —
// including nested _batch bodies, the gossip kinds and binary request
// bodies — through the server's request parser and dispatch path. The
// server must answer every request the parser accepts (serveConn drops
// the connection only on a frame it rejects) without panicking, and a
// binary body sent to a kind that reads only JSON is an error reply.
func FuzzDispatch(f *testing.F) {
	f.Add([]byte(`{"id":1,"kind":"echo","body":{"x":1}}`))
	f.Add([]byte(`{"id":2,"kind":"_batch","body":[{"id":1,"kind":"echo","body":null},{"id":2,"kind":"missing"}]}`))
	f.Add([]byte(`{"id":3,"kind":"_batch","body":[{"id":1,"kind":"_batch","body":[]}]}`))
	f.Add([]byte(`{"id":4,"kind":"_batch","body":"not-a-list"}`))
	f.Add([]byte(`{"id":5,"kind":"gossip_heads","body":{"heads":[{"source":"mon","head":{"size":18446744073709551615}}]}}`))
	f.Add([]byte(`{"id":6,"kind":"pollinate","body":{"heads":[{"cosigs":[{"witness":"AA","sig":null}]}]}}`))
	f.Add([]byte(`{"id":7,"kind":"nobatch","body":{}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"id":8,"kind":"echo","body":`))
	// Binary request bodies (the marker, then a form) to JSON-only kinds,
	// alone and inside a _batch.
	binaryBody := []byte{markerV2, 0x05, 0xAC, 0x02}
	f.Add(append(appendEnvelope(nil, 0, 9, "gossip_heads", ""), binaryBody...))
	f.Add(append(appendEnvelope(nil, 0, 10, "decoded", ""), binaryBody...))
	f.Add(append(appendEnvelope(nil, 0, 11, "echo", ""), binaryBody...))
	f.Add(append(appendEnvelope(nil, 0, 12, "decoded", ""), markerV2))
	f.Add(append(appendEnvelope(nil, flagBatch, 13, BatchKind, ""), appendSubRequests(nil, []Request{
		{Kind: "decoded", Body: binaryBody}, {Kind: "gossip_heads", Body: binaryBody}, {Kind: "pollinate", Body: []byte{markerV2}},
	})...))
	f.Add([]byte(`{"id":14,"kind":"decoded","body":{"heads":[]},"v":3}`))

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

		req, _, err := parseRequest(raw)
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
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("response does not re-encode: %v", err)
		}
		// The kinds that read their body must refuse a binary one, alone
		// or as a _batch entry.
		readsBody := map[string]bool{"echo": true, "gossip_heads": true, "decoded": true}
		if readsBody[req.Kind] && isV2(req.Body) && resp.OK {
			t.Fatalf("%s answered a binary request body: %s", req.Kind, resp.Body)
		}
		if req.Kind == BatchKind && req.container && resp.OK {
			subs, _ := parseSubRequests(nil, req.Body)
			var resps []Response
			if err := json.Unmarshal(resp.Body, &resps); err != nil || len(resps) != len(subs) {
				t.Fatalf("batch of %d answered with %d entries (%v)", len(subs), len(resps), err)
			}
			for i := range subs {
				if readsBody[subs[i].Kind] && isV2(subs[i].Body) && resps[i].OK {
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
	const pushOne = `{"id":0,"kind":"_batch","body":[{"id":0,"kind":"push_heads","body":{"from":"mon","heads":[` + head7 + `]}}]}`
	// Well-formed subscription ack, the same ack truncated, an error ack.
	ack := []byte(`{"id":1,"ok":true,"body":{"heads":[` + head7 + `]}}`)
	f.Add(ack)
	f.Add(ack[:len(ack)/2])
	f.Add([]byte(`{"id":2,"ok":false,"error":"denied"}`))
	// Push frame carrying two heads, one a regression.
	f.Add([]byte(`{"id":0,"kind":"_batch","body":[{"id":0,"kind":"push_heads","body":{"from":"mon","heads":[` + head7 + `,` + head3 + `]}}]}`))
	// Nested _batch push frame (batch inside a batch).
	f.Add([]byte(`{"id":0,"kind":"_batch","body":[{"id":0,"kind":"_batch","body":` + pushOne + `}]}`))
	// Non-batch push kind, empty frame, raw garbage.
	f.Add([]byte(`{"id":9,"kind":"push_heads","body":{"from":"x","heads":[` + head7 + `]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"ok":true`))
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

// FuzzParseRequestV1 is the differential check on parseRequest's v1
// scanner: on every frame it must accept and reject exactly what
// json.Unmarshal does and decode the same id, kind, body and offer. Every
// frame the client's encoder could have written must take the scanner,
// not the fallback, unless its kind needs escaping or a number is out of
// the scanner's range.
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
		raw, err := json.Marshal(&requestV1{Request: req, V: offerBodies})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if isV2(data) {
			return
		}
		req, offer, err := parseRequest(data)
		var want requestV1
		wantErr := json.Unmarshal(data, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: parseRequest error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		if req.ID != want.ID || req.Kind != want.Kind || !bytes.Equal(req.Body, want.Body) || offer != want.V {
			t.Fatalf("%q: parseRequest gave (%d, %q, %q, v %d), json.Unmarshal (%d, %q, %q, v %d)",
				data, req.ID, req.Kind, req.Body, offer, want.ID, want.Kind, want.Body, want.V)
		}
		client, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		plain := want.ID < 1e19 && want.V >= 0 && want.V < 1e9 &&
			!strings.ContainsFunc(want.Kind, func(r rune) bool { return r < 0x20 || r >= 0x80 || strings.ContainsRune(`"\<>&`, r) })
		if _, _, ok := scanRequestV1(data); plain && bytes.Equal(client, data) && !ok {
			t.Fatalf("%q: the client's own encoding fell back to json.Unmarshal", data)
		}
	})
}
