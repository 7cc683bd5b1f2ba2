package transport_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/gossip"
	"repro/internal/serve"
	"repro/internal/transport"
)

// The compat matrix: frozen wire-v1 peers, written here with nothing but
// encoding/json on Request and Response (what every peer built from an
// earlier commit is), against this commit's Client and Server. The old
// population must keep working unmodified, and must not even be able to
// tell: what it receives is byte-identical to the golden frames captured
// from the parent commit (compat_golden_test.go), and what it is sent is
// today's v1 apart from one field its decoder ignores.

// ---- the frozen v1 server ----

// v1Server is a wire-v1 server as any earlier commit built it: it
// decodes a Request with encoding/json (which ignores fields it does not
// know), answers "echo" with the request's body, a _batch with a JSON
// list of the same, and "subscribe" with an ack followed by one pushed
// _batch. It records every frame payload it read.
type v1Server struct {
	mu   sync.Mutex
	seen [][]byte
}

func (s *v1Server) serve(conn net.Conn) {
	defer conn.Close()
	reply := func(v any) bool {
		out, _ := json.Marshal(v)
		return transport.WriteFrame(conn, out) == nil
	}
	for {
		frame, err := transport.ReadFrame(conn)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.seen = append(s.seen, frame)
		s.mu.Unlock()
		var req transport.Request
		if json.Unmarshal(frame, &req) != nil {
			return // a v1 server drops what it cannot parse — a v2 frame, say
		}
		resp := transport.Response{ID: req.ID, OK: true, Body: req.Body}
		switch req.Kind {
		case "fail":
			resp = transport.Response{ID: req.ID, Error: "refused"}
		case transport.BatchKind:
			var subs []transport.Request
			json.Unmarshal(req.Body, &subs)
			resps := make([]transport.Response, len(subs))
			for i, sub := range subs {
				resps[i] = transport.Response{ID: sub.ID, OK: true, Body: sub.Body}
			}
			resp.Body, _ = json.Marshal(resps)
		}
		if !reply(&resp) {
			return
		}
		if req.Kind == "subscribe" {
			subs, _ := json.Marshal([]transport.Request{{ID: 1, Kind: "notify", Body: json.RawMessage(`{"seq":1}`)}})
			if !reply(&transport.Request{Kind: transport.BatchKind, Body: subs}) {
				return
			}
		}
	}
}

// TestCompatNewClientV1Server: this commit's Client against a v1 server
// completes Call, CallBatch and subscribe + push, never leaves v1, and
// every frame it writes is today's v1 apart from the "v":3 field.
func TestCompatNewClientV1Server(t *testing.T) {
	cli, srvConn := net.Pipe()
	srv := &v1Server{}
	go srv.serve(srvConn)
	pushed := make(chan []transport.Request, 1)
	c := transport.NewPushClient(cli, func(subs []transport.Request) { pushed <- subs })
	defer c.Close()
	c.SetTimeout(5 * time.Second)

	type msg struct {
		Text string `json:"text"`
	}
	for i := 0; i < 3; i++ { // well past the first reply: the connection must stay v1
		var got msg
		if err := c.Call("echo", msg{Text: fmt.Sprint("call ", i)}, &got); err != nil || got.Text != fmt.Sprint("call ", i) {
			t.Fatalf("Call %d against a v1 server: %+v, %v", i, got, err)
		}
	}
	var remote *transport.ErrRemote
	if err := c.Call("fail", msg{}, nil); !errors.As(err, &remote) || remote.Msg != "refused" {
		t.Fatalf("error reply from a v1 server: %v", err)
	}
	res, err := c.CallBatch([]transport.BatchCall{{Kind: "echo", In: msg{Text: "a"}}, {Kind: "echo", In: msg{Text: "b"}}})
	if err != nil || len(res) != 2 {
		t.Fatalf("CallBatch against a v1 server: %v", err)
	}
	for i, want := range []string{"a", "b"} {
		var got msg
		if err := res[i].Decode(&got); err != nil || got.Text != want {
			t.Fatalf("batch result %d: %+v, %v", i, got, err)
		}
	}
	if err := c.Call("subscribe", msg{Text: "me"}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case subs := <-pushed:
		if len(subs) != 1 || subs[0].Kind != "notify" || string(subs[0].Body) != `{"seq":1}` {
			t.Fatalf("pushed %+v", subs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the v1 server's push never reached the callback")
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.seen) != 6 {
		t.Fatalf("the v1 server read %d frames, want 6", len(srv.seen))
	}
	for i, payload := range srv.seen {
		var req transport.Request
		if err := json.Unmarshal(payload, &req); err != nil {
			t.Fatalf("frame %d is not v1 JSON: %q", i, payload)
		}
		v1, _ := json.Marshal(&req) // what the parent commit's client wrote for this request
		want := append(v1[:len(v1)-1:len(v1)-1], `,"v":3}`...)
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d differs from v1 by more than the offer\n got  %s\n want %s", i, payload, want)
		}
	}
}

// ---- new ↔ new ----

// tap records, frame by frame, what crosses one connection in each
// direction. It reads the byte streams the way a peer would.
type tap struct {
	net.Conn
	mu      sync.Mutex
	out, in bytes.Buffer
}

func (c *tap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// frames returns the payloads written and read so far.
func (c *tap) frames(t *testing.T) (written, read [][]byte) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	split := func(stream []byte) (frames [][]byte) {
		r := bytes.NewReader(stream)
		for r.Len() > 0 {
			payload, err := transport.ReadFrame(r)
			if err != nil {
				break // a frame still in flight
			}
			frames = append(frames, payload)
		}
		return frames
	}
	return split(c.out.Bytes()), split(c.in.Bytes())
}

func isV1(payload []byte) bool { return len(payload) > 0 && payload[0] == '{' }

// TestCompatNewClientNewServer: two upgraded peers start in v1 with the
// offer, the server answers that very request in v2, the client speaks
// v2 from its next request on — pushes and batches included, all decoded
// into the same Go types — and a ManagedClient's reconnect starts over
// at v1 with the offer.
func TestCompatNewClientNewServer(t *testing.T) {
	ln, backend, tier := startGoldenServer(t)
	var mu sync.Mutex
	var taps []*tap
	m := transport.DialManaged("golden", transport.ManagedOptions{
		CallTimeout: 5 * time.Second,
		Dial: func(string, time.Duration) (net.Conn, error) {
			conn, err := ln.Dial()
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			taps = append(taps, &tap{Conn: conn})
			return taps[len(taps)-1], nil
		},
	})
	defer m.Close()

	audit := func(what string, resp *serve.ProofResponse, index int) {
		t.Helper()
		if resp.Proof == nil || resp.Head == nil || resp.Proof.GlobalIndex != index ||
			!bytes.Equal(resp.Payload, goldenLeaf(index)) ||
			!aolog.VerifyShardInclusion(resp.Payload, resp.Proof, resp.Head.Head) ||
			!aolog.VerifyHeadBLS(backend.sk.PublicKey(), resp.Head) {
			t.Fatalf("%s: proof reply does not verify: %+v", what, resp)
		}
	}
	for i, index := range []int{41, 42, 43} {
		var resp serve.ProofResponse
		if err := m.Call("proof", serve.ProofRequest{Index: index}, &resp); err != nil {
			t.Fatal(err)
		}
		audit(fmt.Sprint("call ", i), &resp, index)
	}
	var head aolog.BLSSignedHead
	var cons aolog.ShardConsistencyProof
	if err := m.Call("headbls", struct{}{}, &head); err != nil || !aolog.VerifyHeadBLS(backend.sk.PublicKey(), &head) {
		t.Fatalf("headbls over v2: %v", err)
	}
	if err := m.Call("consistency", serve.ConsistencyRequest{OldSize: 98}, &cons); err != nil {
		t.Fatal(err)
	}
	if oldRoot, err := cons.OldSuperRoot(); err != nil || !aolog.VerifyShardConsistency(oldRoot, head.Head, &cons) {
		t.Fatalf("consistency over v2 does not verify (%v)", err)
	}
	// The managed client does not mistake a caller's wrong out for a
	// sick endpoint: no retry, no redial.
	var adHoc map[string]any
	var wrongOut *transport.ErrBinaryBody
	if err := m.Call("headbls", struct{}{}, &adHoc); !errors.As(err, &wrongOut) || wrongOut.Kind != "headbls" {
		t.Fatalf("binary head decoded into a map: %v", err)
	}
	if dials, retries, _ := m.Stats(); dials != 1 || retries != 0 {
		t.Fatalf("a wrong out cost %d dials and %d retries, want 1 and 0", dials, retries)
	}
	written, read := taps[0].frames(t)
	if len(written) != 6 || len(read) != 6 {
		t.Fatalf("first connection carried %d requests and %d replies, want 6 and 6", len(written), len(read))
	}
	if !isV1(written[0]) || !bytes.HasSuffix(written[0], []byte(`,"v":3}`)) {
		t.Fatalf("first contact is not v1 carrying the offer: %q", written[0])
	}
	for i := range read {
		if isV1(read[i]) {
			t.Fatalf("reply %d to a client that offered v2 is v1: %.60q", i, read[i])
		}
	}
	for i := 1; i < len(written); i++ {
		if isV1(written[i]) {
			t.Fatalf("request %d, sent after a v2 reply, is still v1: %q", i, written[i])
		}
	}

	// The connection dies; the next call dials again and starts over.
	taps[0].Close()
	var resp serve.ProofResponse
	if err := m.Call("proof", serve.ProofRequest{Index: 44}, &resp); err != nil {
		t.Fatal(err)
	}
	audit("after the reconnect", &resp, 44)
	mu.Lock()
	reconnected := taps[len(taps)-1]
	mu.Unlock()
	if reconnected == taps[0] {
		t.Fatal("the managed client did not redial")
	}
	if written, _ := reconnected.frames(t); len(written) == 0 || !isV1(written[0]) || !bytes.HasSuffix(written[0], []byte(`,"v":3}`)) {
		t.Fatalf("a reconnect does not start over at v1 carrying the offer: %q", written)
	}

	// A raw client on an upgraded connection: batch and push in v2.
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	raw := &tap{Conn: conn}
	sub := serve.NewSubscriber(raw)
	defer sub.Close()
	var headsMu sync.Mutex
	var latest []gossip.GossipHead
	sub.OnHeads = func(_ string, hs []gossip.GossipHead) { headsMu.Lock(); latest = hs; headsMu.Unlock() }
	heads := func() []gossip.GossipHead { headsMu.Lock(); defer headsMu.Unlock(); return latest }
	if err := sub.Subscribe("compat"); err != nil { // first contact, and the upgrade
		t.Fatal(err)
	}
	backend.grow()
	tier.Kick()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := heads(); len(got) == 1 && got[0].Head.Size == goldenLeaves+1 {
			if !aolog.VerifyHeadBLS(backend.sk.PublicKey(), &got[0].Head) {
				t.Fatal("the head pushed over v2 does not verify")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the head pushed over v2 never arrived")
		}
	}
	if _, read := raw.frames(t); len(read) != 2 || isV1(read[0]) || isV1(read[1]) {
		t.Fatalf("subscribe ack and push to an upgraded client: %d frames, v1 among them", len(read))
	}
}

// TestCompatBatchAcrossTheUpgrade: the one exchange whose request and
// reply differ in format — a _batch as first contact, JSON list out,
// container back — and the same batch again once upgraded decode to the
// same verified values.
func TestCompatBatchAcrossTheUpgrade(t *testing.T) {
	ln, backend, _ := startGoldenServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	wire := &tap{Conn: conn}
	c := transport.NewClient(wire)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	for round := 0; round < 2; round++ {
		res, err := c.CallBatch([]transport.BatchCall{
			{Kind: "proof", In: serve.ProofRequest{Index: 3, Size: 64}},
			{Kind: "consistency", In: serve.ConsistencyRequest{OldSize: 64}},
			{Kind: "subscribe"},
		})
		if err != nil {
			t.Fatal(err)
		}
		var resp serve.ProofResponse
		var cons aolog.ShardConsistencyProof
		if err := res[0].Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if err := res[1].Decode(&cons); err != nil {
			t.Fatal(err)
		}
		head, _ := backend.TreeHeadBLS()
		oldRoot, err := cons.OldSuperRoot()
		if err != nil || !aolog.VerifyShardConsistency(oldRoot, head.Head, &cons) ||
			!aolog.VerifyShardInclusion(resp.Payload, resp.Proof, oldRoot) {
			t.Fatalf("round %d: the batch's proofs do not verify", round)
		}
		var remote *transport.ErrRemote
		if !errors.As(res[2].Err, &remote) || !strings.Contains(remote.Msg, "not allowed inside a batch") {
			t.Fatalf("round %d: per-entry refusal came back as %v", round, res[2].Err)
		}
		// A binary body offered to an out that cannot read one is an
		// error naming the kind, not a zero value.
		var adHoc struct{ Index int }
		var typed *transport.ErrBinaryBody
		if err := res[0].Decode(&adHoc); !errors.As(err, &typed) || typed.Kind != "proof" {
			t.Fatalf("round %d: decoding a binary proof into an ad-hoc struct: %v", round, err)
		}
	}
	written, read := wire.frames(t)
	if len(written) != 2 || !isV1(written[0]) || isV1(written[1]) || isV1(read[0]) || isV1(read[1]) {
		t.Fatal("want a v1 batch with the offer answered in v2, then a v2 batch answered in v2")
	}
	var typed *transport.ErrBinaryBody
	var adHoc map[string]any
	if err := c.Call("headbls", struct{}{}, &adHoc); !errors.As(err, &typed) || typed.Kind != "headbls" {
		t.Fatalf("Call decoding a binary head into a map: %v", err)
	}
}
