package serve

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"sync"
	"testing"

	"repro/internal/aolog"
	"repro/internal/gossip"
	"repro/internal/transport"
)

// deliveries records what a subscriber handed its OnHeads, per source.
type deliveries struct {
	mu    sync.Mutex
	sizes map[string][]uint64
}

func recordDeliveries(s *Subscriber) *deliveries {
	d := &deliveries{sizes: make(map[string][]uint64)}
	s.OnHeads = func(_ string, heads []gossip.GossipHead) {
		d.mu.Lock()
		defer d.mu.Unlock()
		for i := range heads {
			key := sourceKey(&heads[i])
			d.sizes[key] = append(d.sizes[key], heads[i].Head.Size)
		}
	}
	return d
}

// checkMonotone fails if what the subscriber delivered ever violated
// the per-source monotonicity the push channel promises, or if Heads
// and Stats disagree with what was delivered.
func checkMonotone(t *testing.T, s *Subscriber, d *deliveries) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	latest := make(map[string]uint64)
	for _, gh := range s.Heads() {
		latest[sourceKey(&gh)] = gh.Head.Size
	}
	var total uint64
	for key, sizes := range d.sizes {
		for i := 1; i < len(sizes); i++ {
			if sizes[i] < sizes[i-1] {
				t.Fatalf("source %q: delivered sizes %v regress at position %d", key, sizes, i)
			}
		}
		if got, ok := latest[key]; !ok || got != sizes[len(sizes)-1] {
			t.Fatalf("source %q: Heads reports size %d (present=%v), last delivered %d", key, got, ok, sizes[len(sizes)-1])
		}
		total += uint64(len(sizes))
	}
	if len(latest) != len(d.sizes) {
		t.Fatalf("Heads reports %d sources, %d were delivered", len(latest), len(d.sizes))
	}
	if got := s.Stats().Received; got != total {
		t.Fatalf("Stats.Received = %d, %d heads were delivered", got, total)
	}
}

// Frames in the transport's wire format (internal/transport/wire2.go),
// built by hand. An envelope is the 0xB2 marker, a flags byte, the
// uvarint ID, the kind unless it is a reply, the error if it is one, and
// the body; a container (v2Container in binary_test.go) is a _batch's or
// a push's body.
const (
	flagReply = 1 << 0
	flagError = 1 << 1
	flagBatch = 1 << 3
)

func envelope(flags byte, id uint64, kind, errMsg string, body []byte) []byte {
	b := binary.AppendUvarint([]byte{0xB2, flags}, id)
	if flags&flagReply == 0 {
		b = append(binary.AppendUvarint(b, uint64(len(kind))), kind...)
	}
	if flags&flagError != 0 {
		b = append(binary.AppendUvarint(b, uint64(len(errMsg))), errMsg...)
	}
	return append(b, body...)
}

func container(subs ...transport.Request) []byte {
	kinds, bodies := make([]string, len(subs)), make([][]byte, len(subs))
	for i := range subs {
		kinds[i], bodies[i] = subs[i].Kind, subs[i].Body
	}
	return v2Container(kinds, bodies)
}

// pushFrame is a pushed _batch of subs.
func pushFrame(subs ...transport.Request) []byte {
	return envelope(flagBatch, 0, transport.BatchKind, "", container(subs...))
}

func headsBody(t *testing.T, from string, heads ...gossip.GossipHead) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(&gossip.HeadsMessage{From: from, Heads: heads})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzSubscribeFrame drives raw wire frames — subscription acks,
// responses, pushes, and garbage — through a real transport.Client into
// the subscriber, the two halves together (the client's frame router
// has its own target of this name in internal/transport). A Subscribe
// is pending on request ID 1 when the frames arrive, so a frame that
// acks it primes the head set; every frame is delivered twice. Nothing
// may panic or break head monotonicity.
func FuzzSubscribeFrame(f *testing.F) {
	t := &testing.T{}
	gh := gossip.GossipHead{Source: "mon", Head: aolog.BLSSignedHead{Size: 7}}
	gh2 := gossip.GossipHead{Source: "mon", Head: aolog.BLSSignedHead{Size: 3}} // regression

	// Well-formed subscription ack (a Response frame).
	ackBody, _ := json.Marshal(&SubscribeResponse{Heads: []gossip.GossipHead{gh}})
	ack := envelope(flagReply, 1, "", "", ackBody)
	f.Add(ack)
	// Truncated ack.
	f.Add(ack[:len(ack)/2])
	// Error ack.
	f.Add(envelope(flagReply|flagError, 2, "", "denied", nil))
	// Push frame carrying two heads, one a regression.
	f.Add(pushFrame(transport.Request{Kind: KindPushHeads, Body: headsBody(t, "mon", gh, gh2)}))
	// Nested _batch push frame (batch inside a batch).
	inner := pushFrame(transport.Request{Kind: KindPushHeads, Body: headsBody(t, "mon", gh)})
	f.Add(pushFrame(transport.Request{Kind: transport.BatchKind, Body: inner}))
	// Non-batch push kind, a bare marker, a reply cut off after its
	// flags, raw garbage.
	f.Add(envelope(0, 9, KindPushHeads, "", headsBody(t, "x", gh)))
	f.Add([]byte{0xB2})
	f.Add([]byte{0xB2, flagReply})
	f.Add([]byte{0xff, 0x00, 0x42})

	f.Fuzz(func(t *testing.T, data []byte) {
		cli, srv := net.Pipe()
		s := NewSubscriber(cli)
		d := recordDeliveries(s)
		subscribed := make(chan error, 1)
		go func() { subscribed <- s.Subscribe("fuzz") }()
		if _, err := transport.ReadFrame(srv); err != nil { // the subscribe request, ID 1
			t.Fatal(err)
		}
		// net.Pipe writes return once read, so closing after them hands
		// the client's reader both frames and then EOF, in that order. A
		// write fails if the first frame already ended the connection.
		_ = transport.WriteFrame(srv, data)
		_ = transport.WriteFrame(srv, data) // duplicated delivery
		srv.Close()
		<-subscribed
		<-s.client.Load().Done()
		s.Close()
		checkMonotone(t, s, d)
	})
}

// FuzzPushBatch fuzzes the pushed-_batch body specifically: the
// container a real transport.Client splits into sub-requests for the
// push_heads decoder must survive arbitrary contents (nested batches,
// truncated bodies, hostile sizes) without panicking, and accepted heads
// must stay monotone per source. Every body arrives twice.
func FuzzPushBatch(f *testing.F) {
	t := &testing.T{}
	gh := gossip.GossipHead{Source: "mon", SourcePK: []byte{1, 2, 3}, Head: aolog.BLSSignedHead{Size: 10}}
	gh2 := gossip.GossipHead{Source: "mon", SourcePK: []byte{1, 2, 3}, Head: aolog.BLSSignedHead{Size: 4}}

	ok := container(transport.Request{Kind: KindPushHeads, Body: headsBody(t, "mon", gh)})
	f.Add(ok)
	f.Add(container(
		transport.Request{Kind: KindPushHeads, Body: headsBody(t, "mon", gh)},
		transport.Request{Kind: KindPushHeads, Body: headsBody(t, "mon", gh2)}, // duplicate source, regressed
	))
	f.Add(container(transport.Request{Kind: transport.BatchKind, Body: ok}))
	f.Add(ok[:len(ok)/2])
	f.Add(container(transport.Request{Kind: KindPushHeads, Body: []byte(`{"heads":[{"head":{"Size":18446744073709551615}}]}`)}))
	f.Add(container())

	f.Fuzz(func(t *testing.T, body []byte) {
		cli, srv := net.Pipe()
		s := NewSubscriber(cli)
		d := recordDeliveries(s)
		push := envelope(flagBatch, 0, transport.BatchKind, "", body)
		_ = transport.WriteFrame(srv, push)
		_ = transport.WriteFrame(srv, push) // duplicated delivery
		srv.Close()
		<-s.client.Load().Done()
		s.Close()
		checkMonotone(t, s, d)
	})
}
