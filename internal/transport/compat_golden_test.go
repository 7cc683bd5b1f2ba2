package transport_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/serve"
	"repro/internal/transport"
)

// The v1-client half of the compat matrix (compat_test.go has the rest
// and the rationale). This file uses nothing the parent commit lacks, on
// purpose: the golden frames in testdata/v1_*.hex are captured by
// copying it into a checkout of the PARENT commit and running
//
//	UPDATE_GOLDEN=1 go test -run TestCompatV1ClientNewServer ./internal/transport/
//
// there. Regenerating them on the commit under test would pin nothing.

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

func (b *goldenBackend) grow() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log.Append(goldenLeaf(b.log.Len()))
}

// startGoldenServer serves the real tier's read path over the golden
// backend on an in-memory listener.
func startGoldenServer(t testing.TB) (*transport.MemListener, *goldenBackend, *serve.Tier) {
	t.Helper()
	b := newGoldenBackend(t)
	pk := b.sk.PublicKey().Bytes()
	tier, err := serve.Attach(b, serve.Options{Source: "golden", SourcePK: pk[:]})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	tier.Register(srv)
	ln := transport.NewMemListener()
	srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		tier.Close()
	})
	return ln, b, tier
}

// ---- the frozen v1 client ----

// v1Client is a wire-v1 client as any earlier commit built it: a Request
// marshalled by encoding/json into a classic frame, a classic frame read
// back. It knows nothing of wire v2 and offers nothing.
type v1Client struct {
	t    *testing.T
	conn net.Conn
	id   uint64
}

// send writes one request and returns the whole reply frame it got back:
// length word and payload, the bytes a golden file holds.
func (c *v1Client) send(kind string, body any) []byte {
	c.t.Helper()
	c.id++
	raw, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	payload, _ := json.Marshal(&transport.Request{ID: c.id, Kind: kind, Body: raw})
	if err := transport.WriteFrame(c.conn, payload); err != nil {
		c.t.Fatal(err)
	}
	return c.read()
}

func (c *v1Client) read() []byte {
	c.t.Helper()
	payload, err := transport.ReadFrame(c.conn)
	if err != nil {
		c.t.Fatal(err)
	}
	var frame bytes.Buffer
	transport.WriteFrame(&frame, payload)
	return frame.Bytes()
}

// checkGolden compares one frame with testdata/v1_<name>.hex, which
// UPDATE_GOLDEN=1 rewrites — on the PARENT commit, where the files come
// from: a golden regenerated on the commit under test pins nothing.
func checkGolden(t *testing.T, name string, frame []byte) {
	t.Helper()
	path := filepath.Join("testdata", "v1_"+name+".hex")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(frame)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("%s: a v1 client receives %d bytes that differ from the %d the parent commit sent\n got  %q\n want %q",
			name, len(frame), len(want), frame, want)
	}
}

// TestCompatV1ClientNewServer: what a v1 client receives from this
// commit's Server and serving tier — every read-path reply, a _batch, an
// error, a subscribe ack and a pushed push_heads — is byte-identical to
// what the parent commit sent it.
func TestCompatV1ClientNewServer(t *testing.T) {
	ln, backend, tier := startGoldenServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &v1Client{t: t, conn: conn}

	checkGolden(t, "proof", c.send("proof", serve.ProofRequest{Index: 41}))
	checkGolden(t, "proof_old_size", c.send("proof", serve.ProofRequest{Index: 7, Size: 37}))
	checkGolden(t, "headbls", c.send("headbls", struct{}{}))
	checkGolden(t, "consistency", c.send("consistency", serve.ConsistencyRequest{OldSize: 37}))
	// 98..100 leaves two shards untouched: nil entries in the proof.
	checkGolden(t, "consistency_nil_shards", c.send("consistency", serve.ConsistencyRequest{OldSize: 98}))
	checkGolden(t, "error", c.send("proof", serve.ProofRequest{Index: goldenLeaves + 5}))
	checkGolden(t, "unknown_kind", c.send("no_such_kind", struct{}{}))
	proofBody, _ := json.Marshal(serve.ProofRequest{Index: 3, Size: 64})
	consBody, _ := json.Marshal(serve.ConsistencyRequest{OldSize: 64})
	checkGolden(t, "batch", c.send(transport.BatchKind, []transport.Request{
		{ID: 1, Kind: "proof", Body: proofBody},
		{ID: 2, Kind: "consistency", Body: consBody},
		{ID: 3, Kind: "subscribe"}, // refused inside a batch: a per-entry error
	}))
	checkGolden(t, "subscribe_ack", c.send("subscribe", serve.SubscribeRequest{From: "v1"}))
	backend.grow()
	tier.Kick()
	checkGolden(t, "push_heads", c.read())
}
