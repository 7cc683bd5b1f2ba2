package gossip

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bls"
	"repro/internal/transport"
)

// startWitness serves a witness over a real transport server and returns
// its address.
func startWitness(t *testing.T, w *Witness) string {
	t.Helper()
	srv := transport.NewServer()
	w.Register(srv)
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func dialPeer(t *testing.T, addr string) *Peer {
	t.Helper()
	p := DialPeer(addr, transport.ManagedOptions{})
	t.Cleanup(func() { p.Close() })
	return p
}

// TestGossipRoundConvergence: three witnesses observe the same honest
// source and, after each runs one round over real transport, every
// witness holds a frontier cosigned by all three — enough for any client
// quorum up to 3.
func TestGossipRoundConvergence(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 8)
	w1 := newTestWitness(t, "w1", []*sourceLog{src})
	w2 := newTestWitness(t, "w2", []*sourceLog{src}, w1)
	w3 := newTestWitness(t, "w3", []*sourceLog{src}, w1, w2)
	ws := []*Witness{w1, w2, w3}

	head := src.head()
	for _, w := range ws {
		if res := w.Ingest("mon", head, nil); !res.Accepted {
			t.Fatalf("%s rejected the honest head: %+v", w.Name(), res)
		}
	}

	addrs := make([]string, len(ws))
	for i, w := range ws {
		addrs[i] = startWitness(t, w)
	}
	for i, w := range ws {
		var peers []*Peer
		for j, addr := range addrs {
			if j != i {
				peers = append(peers, dialPeer(t, addr))
			}
		}
		sum, err := w.Round(peers)
		if err != nil {
			t.Fatalf("%s round: %v", w.Name(), err)
		}
		if sum.Peers != 2 {
			t.Fatalf("%s exchanged with %d peers, want 2", w.Name(), sum.Peers)
		}
		if sum.NewProofs != 0 {
			t.Fatalf("%s produced proofs for an honest source", w.Name())
		}
	}

	keys := []*bls.PublicKey{w1.PublicKey(), w2.PublicKey(), w3.PublicKey()}
	for _, w := range ws {
		ch, err := w.CosignedHead("mon")
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCosignedHead(src.pk, keys, 3, ch); err != nil {
			t.Fatalf("%s frontier below full quorum: %v", w.Name(), err)
		}
	}
}

// TestCosignRPC drives the cosign kind over transport.
func TestCosignRPC(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 5)
	w := newTestWitness(t, "w", []*sourceLog{src})
	p := dialPeer(t, startWitness(t, w))

	resp, err := p.Cosign(&CosignRequest{Source: "mon", Head: src.head()})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.Cosig == nil {
		t.Fatalf("cosign refused: %+v", resp)
	}
	if resp2, err := p.Cosign(&CosignRequest{Source: "nope", Head: src.head()}); err != nil {
		t.Fatal(err)
	} else if resp2.Error == "" || resp2.Accepted {
		t.Fatalf("unknown source cosigned: %+v", resp2)
	}
}

// sortCosigs puts each head's cosignatures (served in map order) into
// witness-key order so two responses compare by content.
func sortCosigs(r *HeadsResponse) {
	for i := range r.Heads {
		cos := r.Heads[i].Cosigs
		sort.Slice(cos, func(a, b int) bool { return bytes.Compare(cos[a].Witness, cos[b].Witness) < 0 })
	}
}

// TestManagedPeerMatchesRawClient is the differential check for the
// witness-to-witness path: on a fault-free link a gossip Round over
// managed peers costs one dial per peer and no retries, and once the
// round has converged a peer answers a managed exchange exactly as it
// answers the same frame over a raw single connection.
func TestManagedPeerMatchesRawClient(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 8)
	w1 := newTestWitness(t, "w1", []*sourceLog{src})
	w2 := newTestWitness(t, "w2", []*sourceLog{src}, w1)
	w3 := newTestWitness(t, "w3", []*sourceLog{src}, w1, w2)
	head := src.head()
	for _, w := range []*Witness{w1, w2, w3} {
		if res := w.Ingest("mon", head, nil); !res.Accepted {
			t.Fatalf("%s rejected the honest head: %+v", w.Name(), res)
		}
	}
	addrs := []string{startWitness(t, w2), startWitness(t, w3)}
	peers := []*Peer{dialPeer(t, addrs[0]), dialPeer(t, addrs[1])}

	sum, err := w1.Round(peers)
	if err != nil || sum.Peers != 2 || sum.NewProofs != 0 {
		t.Fatalf("round: %+v, %v", sum, err)
	}
	// Gossip merges are monotone, so replaying w1's frontier is a no-op
	// on the peers and their answers are a fixpoint.
	msg := &HeadsMessage{From: w1.Name(), Heads: w1.FrontierHeads()}
	for i, p := range peers {
		got, err := p.GossipHeads(msg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := transport.Dial(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		var want HeadsResponse
		err = raw.Call(KindGossipHeads, msg, &want)
		raw.Close()
		if err != nil {
			t.Fatal(err)
		}
		sortCosigs(got)
		sortCosigs(&want)
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("peer %d: managed exchange differs from the raw client's", i)
		}
		if dials, retries, rejected := p.c.Stats(); dials != 1 || retries != 0 || rejected != 0 {
			t.Fatalf("peer %d: dials=%d retries=%d rejected=%d, want 1/0/0", i, dials, retries, rejected)
		}
	}
}
