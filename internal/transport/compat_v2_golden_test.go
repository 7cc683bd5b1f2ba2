package transport_test

import (
	"bytes"
	"encoding/hex"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/serve"
	"repro/internal/transport"
)

// The v2 goldens: what a client that speaks wire v2 but writes only JSON
// request bodies (offer "v":2) writes on the read path, and what a server
// that never acknowledges binary request bodies answers it. Each
// testdata/v2_<name>.hex holds two lines, the request frame and the reply
// frame, length words included. Like the v1 goldens they come from a
// commit that predates binary request bodies: copy this file into a
// clone of such a commit and run
//
//	UPDATE_GOLDEN=1 go test -run TestCompatParentV2ClientNewServer ./internal/transport/
//
// there; the frames its own Client writes and its own Server answers are
// the goldens. This file uses nothing that commit lacks.

// v2Exchanges is the recorded conversation, in order, on one connection:
// the first contact carries the offer in v1, every later request is v2.
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

// v2Golden is one recorded exchange: whole frames, as they crossed.
type v2Golden struct{ request, reply []byte }

func readV2Golden(t *testing.T, name string) v2Golden {
	t.Helper()
	path := filepath.Join("testdata", "v2_"+name+".hex")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(text))
	if len(lines) != 2 {
		t.Fatalf("%s: %d lines, want a request and a reply", path, len(lines))
	}
	var g v2Golden
	for i, dst := range []*[]byte{&g.request, &g.reply} {
		if *dst, err = hex.DecodeString(lines[i]); err != nil {
			t.Fatalf("%s line %d: %v", path, i+1, err)
		}
	}
	return g
}

// reframe returns a payload as the whole frame that carried it.
func reframe(payload []byte) []byte {
	var frame bytes.Buffer
	transport.WriteFrame(&frame, payload)
	return frame.Bytes()
}

// callExchange makes one recorded exchange's call through c.
func callExchange(c *transport.Client, i int) ([]transport.BatchResult, error) {
	x := v2Exchanges[i]
	if x.calls != nil {
		return c.CallBatch(x.calls)
	}
	return nil, c.Call(x.kind, x.in, nil)
}

// recordV2Goldens is the UPDATE_GOLDEN=1 half: this commit's Client
// against this commit's Server, every frame written down.
func recordV2Goldens(t *testing.T) {
	ln, _, _ := startGoldenServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	wire := &tap{Conn: conn}
	c := transport.NewClient(wire)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	for i, x := range v2Exchanges {
		if _, err := callExchange(c, i); err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		written, read := wire.frames(t)
		if len(written) != i+1 || len(read) != i+1 {
			t.Fatalf("%s: %d requests and %d replies on the wire, want %d", x.name, len(written), len(read), i+1)
		}
		text := hex.EncodeToString(reframe(written[i])) + "\n" + hex.EncodeToString(reframe(read[i])) + "\n"
		if err := os.WriteFile(filepath.Join("testdata", "v2_"+x.name+".hex"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompatParentV2ClientNewServer: a client that offers v2 and writes
// JSON bodies — the recorded request frames, replayed byte for byte —
// gets from this commit's Server and serving tier exactly the reply
// frames it got before binary request bodies existed, none of them
// acknowledging binary bodies (envelope flag bit 4).
func TestCompatParentV2ClientNewServer(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		recordV2Goldens(t)
		return
	}
	ln, _, _ := startGoldenServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, x := range v2Exchanges {
		g := readV2Golden(t, x.name)
		if _, err := conn.Write(g.request); err != nil {
			t.Fatal(err)
		}
		payload, err := transport.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) > 1 && payload[0] == 0xB2 && payload[1]&(1<<4) != 0 {
			t.Errorf("%s: the reply to a client that offered 2 acknowledges binary request bodies", x.name)
		}
		if got := reframe(payload); !bytes.Equal(got, g.reply) {
			t.Errorf("%s: a v2 client receives %d bytes that differ from the %d recorded\n got  %x\n want %x",
				x.name, len(got), len(g.reply), got, g.reply)
		}
	}
}

// TestCompatNewClientParentV2Server: this commit's Client against a
// server that answers in v2 but never acknowledges binary request bodies
// — one that replays the recorded replies — writes exactly the recorded
// request frames, JSON bodies throughout, apart from its offer digit;
// and it decodes the recorded replies into proofs that verify.
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
			seen <- reframe(payload)
			if _, err := srv.Write(g.reply); err != nil {
				return
			}
		}
	}()
	c := transport.NewClient(cli)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	key := newGoldenBackend(t).sk.PublicKey()

	var offered serve.ProofResponse
	if err := c.Call(serve.KindProof, v2Exchanges[0].in, &offered); err != nil {
		t.Fatal(err)
	}
	if offered.Head == nil || !aolog.VerifyHeadBLS(key, offered.Head) ||
		!aolog.VerifyShardInclusion(offered.Payload, offered.Proof, offered.Head.Head) {
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
	res, err := callExchange(c, 3)
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
	if err != nil || !aolog.VerifyShardConsistency(root64, offered.Head.Head, &batchedCons) ||
		!aolog.VerifyShardInclusion(batched.Payload, batched.Proof, root64) {
		t.Fatalf("the batched proofs do not verify (%v)", err)
	}

	for i, g := range goldens {
		got := <-seen
		want := g.request
		if i == 0 {
			// The offer is the one byte allowed to differ.
			want = bytes.Replace(want, []byte(`,"v":2}`), []byte(`,"v":3}`), 1)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: a server that never acknowledged binary bodies received\n got  %x\n want %x",
				v2Exchanges[i].name, got, want)
		}
	}
}
