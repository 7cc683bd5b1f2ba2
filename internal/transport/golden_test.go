package transport_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/transport"
)

// The wire goldens: frames recorded between peers built from earlier
// commits, replayed against this commit's Client and Server.
//
//   - testdata/v2_<name>.hex holds two lines, a request frame and its
//     reply frame, length words included: what a client that wrote v2
//     envelopes with JSON request bodies sent on the read path, and what
//     a server from before binary request bodies answered. The first
//     exchange, "offer", opened that connection with a wire-v1 request
//     carrying the offer of v2.
//   - testdata/v1_proof.hex holds one reply frame a wire-v1 server wrote.
//
// They were recorded on those commits and are never regenerated: this
// commit's Client writes other request bytes, and its Server refuses v1.

// ---- a deterministic serving tier, so frames can be golden ----

// goldenBackend is a serve.Backend over a sharded log of fixed leaves,
// signed with a fixed key: every reply it produces is the same bytes on
// every run and on every commit.
type goldenBackend struct {
	mu  sync.Mutex
	log *aolog.ShardedLog
	sk  *bls.SecretKey
}

const goldenLeaves = 100

func goldenLeaf(i int) []byte { return []byte(fmt.Sprintf("golden-leaf-%03d", i)) }

func newGoldenBackend(t testing.TB) *goldenBackend {
	t.Helper()
	log, err := aolog.NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenLeaves; i++ {
		log.Append(goldenLeaf(i))
	}
	sk, err := bls.SecretKeyFromBytes(bytes.Repeat([]byte{0x17}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return &goldenBackend{log: log, sk: sk}
}

func (b *goldenBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Len()
}

func (b *goldenBackend) TreeHeadBLS() (aolog.BLSSignedHead, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return aolog.SignHeadBLS(b.sk, uint64(b.log.Len()), b.log.SuperRoot()), nil
}

func (b *goldenBackend) ProveInclusionAt(index, n int) ([]byte, *aolog.ShardInclusionProof, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	proof, err := b.log.ProveInclusionAt(index, n)
	if err != nil {
		return nil, nil, err
	}
	return goldenLeaf(index), proof, nil
}

func (b *goldenBackend) ProveConsistencyBetween(oldSize, newSize int) (*aolog.ShardConsistencyProof, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.ProveConsistencyBetween(oldSize, newSize)
}

// startGoldenServer serves the real tier's read path over the golden
// backend on an in-memory listener, with the server's metrics on reg
// when it is not nil.
func startGoldenServer(t testing.TB, reg *obsv.Registry) (*transport.MemListener, *goldenBackend) {
	t.Helper()
	b := newGoldenBackend(t)
	pk := b.sk.PublicKey().Bytes()
	tier, err := serve.Attach(b, serve.Options{Source: "golden", SourcePK: pk[:]})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	if reg != nil {
		srv.Instrument(reg, nil)
	}
	tier.Register(srv)
	ln := transport.NewMemListener()
	srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		tier.Close()
	})
	return ln, b
}

// ---- recorded frames ----

// v2Exchanges is the recorded conversation, in order, on one connection.
var v2Exchanges = []struct {
	name  string
	kind  string
	in    any
	calls []transport.BatchCall // for a _batch
}{
	{name: "offer", kind: serve.KindProof, in: serve.ProofRequest{Index: 41}},
	{name: "proof", kind: serve.KindProof, in: serve.ProofRequest{Index: 7, Size: 37}},
	{name: "consistency", kind: "consistency", in: serve.ConsistencyRequest{OldSize: 37, NewSize: 64}},
	{name: "batch", kind: transport.BatchKind, calls: []transport.BatchCall{
		{Kind: serve.KindProof, In: serve.ProofRequest{Index: 3, Size: 64}},
		{Kind: "consistency", In: serve.ConsistencyRequest{OldSize: 64}},
	}},
}

// readGolden returns the frames testdata/<name>.hex holds, one a line.
func readGolden(t *testing.T, name string) [][]byte {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for i, line := range strings.Fields(string(text)) {
		frame, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("%s line %d: %v", path, i+1, err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// v2Golden is one recorded exchange: whole frames, as they crossed.
type v2Golden struct{ request, reply []byte }

func readV2Golden(t *testing.T, name string) v2Golden {
	t.Helper()
	frames := readGolden(t, "v2_"+name)
	if len(frames) != 2 {
		t.Fatalf("v2_%s.hex: %d lines, want a request and a reply", name, len(frames))
	}
	return v2Golden{request: frames[0], reply: frames[1]}
}

// reframe returns a payload as the whole frame that carried it.
func reframe(payload []byte) []byte {
	var frame bytes.Buffer
	transport.WriteFrame(&frame, payload)
	return frame.Bytes()
}

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
func (c *tap) frames() (written, read [][]byte) {
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

// ---- older peers against this commit ----

// TestCompatParentV2ClientNewServer: a client from before binary request
// bodies — v2 envelopes, JSON bodies — replaying its recorded request
// frames byte for byte gets from this commit's Server and serving tier
// exactly the reply frames it got then. Its connection opened with the
// offer, a wire-v1 frame that TestCompatV1ClientNewServer replays; this
// connection opens with the first v2 request.
func TestCompatParentV2ClientNewServer(t *testing.T) {
	ln, _ := startGoldenServer(t, nil)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, x := range v2Exchanges[1:] {
		g := readV2Golden(t, x.name)
		if _, err := conn.Write(g.request); err != nil {
			t.Fatal(err)
		}
		payload, err := transport.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if got := reframe(payload); !bytes.Equal(got, g.reply) {
			t.Errorf("%s: a v2 client receives %d bytes that differ from the %d recorded\n got  %x\n want %x",
				x.name, len(got), len(g.reply), got, g.reply)
		}
	}
}

// TestCompatV1ClientNewServer is the refusal golden for a wire-v1 client.
// Its request frames — the recorded offer that opened the v2 goldens'
// connection, and the same request as a v1-only client wrote it, with no
// offer — each end their connection without a reply, and each counts one
// rpc_bad_frames_total.
func TestCompatV1ClientNewServer(t *testing.T) {
	reg := obsv.NewRegistry()
	ln, _ := startGoldenServer(t, reg)
	v1Only, err := json.Marshal(&transport.Request{ID: 1, Kind: serve.KindProof, Body: json.RawMessage(`{"index":41}`)})
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range [][]byte{readV2Golden(t, "offer").request, reframe(v1Only)} {
		conn, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := transport.ReadFrame(conn)
		conn.Close()
		if !errors.Is(err, io.EOF) {
			t.Fatalf("v1 request %d: the server answered %q (%v), want the connection closed", i, payload, err)
		}
		if got := reg.Value("rpc_bad_frames_total"); got != float64(i+1) {
			t.Fatalf("after v1 request %d: rpc_bad_frames_total = %v, want %d", i, got, i+1)
		}
	}
}

// TestCompatNewClientV1Server is the refusal golden for a wire-v1 server:
// this commit's Client, answered with the reply frame a v1 server wrote
// (testdata/v1_proof.hex), fails the call with a decode error and ends
// its connection, so the next call fails at once.
func TestCompatNewClientV1Server(t *testing.T) {
	reply := readGolden(t, "v1_proof")
	if len(reply) != 1 {
		t.Fatalf("v1_proof.hex: %d lines, want one reply", len(reply))
	}
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		if _, err := transport.ReadFrame(srv); err == nil {
			srv.Write(reply[0])
		}
	}()
	c := transport.NewClient(cli)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	var resp serve.ProofResponse
	err := c.Call(serve.KindProof, serve.ProofRequest{Index: 41}, &resp)
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("a v1 reply: %v, want a decode error", err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the connection outlived a v1 reply")
	}
	if err := c.Call(serve.KindProof, serve.ProofRequest{Index: 41}, &resp); err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("the call after a v1 reply: %v, want the connection's decode error", err)
	}
}

// TestCompatNewClientParentV2Server: this commit's Client against a
// server that replays the recorded replies decodes them into proofs that
// verify, and what it wrote is wire v2 from its first frame: each
// request of the recorded kind, with its In — alone or inside the _batch
// — as the marked binary form.
func TestCompatNewClientParentV2Server(t *testing.T) {
	goldens := make([]v2Golden, len(v2Exchanges))
	for i, x := range v2Exchanges {
		goldens[i] = readV2Golden(t, x.name)
	}
	cli, srv := net.Pipe()
	seen := make(chan []byte, len(goldens))
	go func() {
		defer srv.Close()
		for _, g := range goldens {
			payload, err := transport.ReadFrame(srv)
			if err != nil {
				return
			}
			seen <- payload
			if _, err := srv.Write(g.reply); err != nil {
				return
			}
		}
	}()
	c := transport.NewClient(cli)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	key := newGoldenBackend(t).sk.PublicKey()

	var first serve.ProofResponse
	if err := c.Call(serve.KindProof, v2Exchanges[0].in, &first); err != nil {
		t.Fatal(err)
	}
	if first.Head == nil || !aolog.VerifyHeadBLS(key, first.Head) ||
		!aolog.VerifyShardInclusion(first.Payload, first.Proof, first.Head.Head) {
		t.Fatal("the first reply does not verify")
	}
	var old serve.ProofResponse
	if err := c.Call(serve.KindProof, v2Exchanges[1].in, &old); err != nil {
		t.Fatal(err)
	}
	var cons aolog.ShardConsistencyProof
	if err := c.Call("consistency", v2Exchanges[2].in, &cons); err != nil {
		t.Fatal(err)
	}
	root37, err := cons.OldSuperRoot()
	if err != nil || !aolog.VerifyShardInclusion(old.Payload, old.Proof, root37) {
		t.Fatalf("the proof at size 37 does not verify against the consistency proof's old root (%v)", err)
	}
	res, err := c.CallBatch(v2Exchanges[3].calls)
	if err != nil {
		t.Fatal(err)
	}
	var batched serve.ProofResponse
	var batchedCons aolog.ShardConsistencyProof
	if err := res[0].Decode(&batched); err != nil {
		t.Fatal(err)
	}
	if err := res[1].Decode(&batchedCons); err != nil {
		t.Fatal(err)
	}
	root64, err := batchedCons.OldSuperRoot()
	if err != nil || !aolog.VerifyShardConsistency(root64, first.Head.Head, &batchedCons) ||
		!aolog.VerifyShardInclusion(batched.Payload, batched.Proof, root64) {
		t.Fatalf("the batched proofs do not verify (%v)", err)
	}

	for i, x := range v2Exchanges {
		req, err := transport.ParseRequest(<-seen)
		if err != nil || req.ID != uint64(i+1) || req.Kind != x.kind {
			t.Fatalf("%s: request %+v (%v), want a v2 %q request with ID %d", x.name, req, err, x.kind, i+1)
		}
		bodies, ins := [][]byte{req.Body}, []any{x.in}
		if x.calls != nil {
			subs, err := transport.SubRequests(req.Body)
			if err != nil || len(subs) != len(x.calls) {
				t.Fatalf("%s: %d sub-requests (%v), want %d", x.name, len(subs), err, len(x.calls))
			}
			bodies, ins = nil, nil
			for j := range subs {
				bodies, ins = append(bodies, subs[j].Body), append(ins, x.calls[j].In)
			}
		}
		for j, body := range bodies {
			got := reflect.New(reflect.TypeOf(ins[j]))
			if len(body) == 0 || body[0] != 0xB2 {
				t.Fatalf("%s: body %d is not binary: %q", x.name, j, body)
			}
			if err := transport.DecodeBody(body, got.Interface()); err != nil || got.Elem().Interface() != ins[j] {
				t.Fatalf("%s: body %d decodes to %+v (%v), want %+v", x.name, j, got.Elem(), err, ins[j])
			}
		}
	}
}

// ---- this commit against itself ----

// TestCompatNewClientNewServer: this commit's ManagedClient against this
// commit's Server and serving tier writes wire v2 from its first frame,
// on its first connection and on the one it redials, and every reply is
// v2. Plain calls decode into the same Go types as ever and verify, and a
// caller's wrong out is an ErrBinaryBody naming the kind, which costs a
// managed client no retry or redial.
func TestCompatNewClientNewServer(t *testing.T) {
	ln, backend := startGoldenServer(t, nil)
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
	key := backend.sk.PublicKey()

	audit := func(what string, resp *serve.ProofResponse, index int) {
		t.Helper()
		if resp.Proof == nil || resp.Head == nil || resp.Proof.GlobalIndex != index ||
			!bytes.Equal(resp.Payload, goldenLeaf(index)) ||
			!aolog.VerifyShardInclusion(resp.Payload, resp.Proof, resp.Head.Head) ||
			!aolog.VerifyHeadBLS(key, resp.Head) {
			t.Fatalf("%s: proof reply does not verify: %+v", what, resp)
		}
	}
	// v2 checks that every frame crossing w so far is wire v2, the
	// requests parsing as the server parses them.
	v2 := func(what string, w *tap, frames int) {
		t.Helper()
		written, read := w.frames()
		if len(written) != frames || len(read) != frames {
			t.Fatalf("%s: %d requests and %d replies, want %d and %d", what, len(written), len(read), frames, frames)
		}
		for i := range written {
			if _, err := transport.ParseRequest(written[i]); err != nil {
				t.Fatalf("%s: request %d is not v2: %v (%.60q)", what, i, err, written[i])
			}
			if read[i][0] != 0xB2 {
				t.Fatalf("%s: reply %d is not v2: %.60q", what, i, read[i])
			}
		}
	}
	for i, index := range []int{41, 42, 43} {
		var resp serve.ProofResponse
		if err := m.Call(serve.KindProof, serve.ProofRequest{Index: index}, &resp); err != nil {
			t.Fatal(err)
		}
		audit(fmt.Sprint("call ", i), &resp, index)
	}
	var head aolog.BLSSignedHead
	var cons aolog.ShardConsistencyProof
	if err := m.Call("headbls", struct{}{}, &head); err != nil || !aolog.VerifyHeadBLS(key, &head) {
		t.Fatalf("headbls: %v", err)
	}
	if err := m.Call("consistency", serve.ConsistencyRequest{OldSize: 98}, &cons); err != nil {
		t.Fatal(err)
	}
	if oldRoot, err := cons.OldSuperRoot(); err != nil || !aolog.VerifyShardConsistency(oldRoot, head.Head, &cons) {
		t.Fatalf("consistency does not verify (%v)", err)
	}
	var adHoc map[string]any
	var wrongOut *transport.ErrBinaryBody
	if err := m.Call("headbls", struct{}{}, &adHoc); !errors.As(err, &wrongOut) || wrongOut.Kind != "headbls" {
		t.Fatalf("binary head decoded into a map: %v", err)
	}
	if dials, retries, _ := m.Stats(); dials != 1 || retries != 0 {
		t.Fatalf("a wrong out cost %d dials and %d retries, want 1 and 0", dials, retries)
	}
	v2("first connection", taps[0], 6)

	// The connection dies; the next call dials again, in v2 from its
	// first frame as well.
	taps[0].Close()
	var resp serve.ProofResponse
	if err := m.Call(serve.KindProof, serve.ProofRequest{Index: 44}, &resp); err != nil {
		t.Fatal(err)
	}
	audit("after the reconnect", &resp, 44)
	mu.Lock()
	reconnected := taps[len(taps)-1]
	mu.Unlock()
	if reconnected == taps[0] {
		t.Fatal("the managed client did not redial")
	}
	v2("the redialled connection", reconnected, 1)

}

// TestCompatBatchAcrossTheUpgrade: a _batch as a raw connection's first
// frame, and the same batch again on that connection, are both v2 out
// and v2 back and decode to the same verified values. (The name dates
// from when the first _batch also upgraded the connection from v1;
// there is no upgrade now, and the first frame is as v2 as the second.)
// A push kind inside the _batch is a per-entry refusal, and a binary
// result offered to an out that cannot read one is an ErrBinaryBody
// naming the kind, not a zero value.
func TestCompatBatchAcrossTheUpgrade(t *testing.T) {
	ln, backend := startGoldenServer(t, nil)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	wire := &tap{Conn: conn}
	c := transport.NewClient(wire)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	head, err := backend.TreeHeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, err := c.CallBatch([]transport.BatchCall{
			{Kind: serve.KindProof, In: serve.ProofRequest{Index: 3, Size: 64}},
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
		oldRoot, err := cons.OldSuperRoot()
		if err != nil || !aolog.VerifyShardConsistency(oldRoot, head.Head, &cons) ||
			!aolog.VerifyShardInclusion(resp.Payload, resp.Proof, oldRoot) {
			t.Fatalf("round %d: the batch's proofs do not verify (%v)", round, err)
		}
		var remote *transport.ErrRemote
		if !errors.As(res[2].Err, &remote) || !strings.Contains(remote.Msg, "not allowed inside a batch") {
			t.Fatalf("round %d: per-entry refusal came back as %v", round, res[2].Err)
		}
		var adHoc struct{ Index int }
		var typed *transport.ErrBinaryBody
		if err := res[0].Decode(&adHoc); !errors.As(err, &typed) || typed.Kind != serve.KindProof {
			t.Fatalf("round %d: decoding a binary proof into an ad-hoc struct: %v", round, err)
		}
	}
	written, read := wire.frames()
	if len(written) != 2 || len(read) != 2 {
		t.Fatalf("%d requests and %d replies, want 2 and 2", len(written), len(read))
	}
	for i := range written {
		req, err := transport.ParseRequest(written[i])
		if err != nil || req.Kind != "_batch" {
			t.Fatalf("request %d is not a v2 _batch: %+v (%v)", i, req, err)
		}
		if read[i][0] != 0xB2 {
			t.Fatalf("reply %d is not v2: %.60q", i, read[i])
		}
	}
}
