package gossip

import (
	"encoding/json"
	"fmt"

	"repro/internal/aolog"
	"repro/internal/transport"
)

// Wire kinds served by a witness (registered via Register).
const (
	// KindGossipHeads is the witness-to-witness exchange: a frame of
	// observed heads (with cosignatures); the response is the responder's
	// cosigned frontier plus any equivocation proofs it holds.
	KindGossipHeads = "gossip_heads"
	// KindPollinate is the client path: an audit client submits the heads
	// it has seen and receives the witnessed frontier and proofs.
	KindPollinate = "pollinate"
	// KindWitnessInfo returns the witness's identity (name, cosigning
	// key, watched sources).
	KindWitnessInfo = "witness_info"
)

// GossipHead is one observed head in a gossip or pollinate frame. Source
// is the sender's local label; SourcePK, when present, is the source's
// compressed BLS key — the canonical identity. Witness responses always
// set it, so clients can match heads across witnesses that configured
// different labels for the same log operator.
type GossipHead struct {
	Source      string                       `json:"source"`
	SourcePK    []byte                       `json:"source_pk,omitempty"`
	Head        aolog.BLSSignedHead          `json:"head"`
	Consistency *aolog.ShardConsistencyProof `json:"consistency,omitempty"`
	Cosigs      []Cosignature                `json:"cosigs,omitempty"`
}

// HeadsMessage is the request body for gossip_heads and pollinate.
type HeadsMessage struct {
	From  string       `json:"from,omitempty"`
	Heads []GossipHead `json:"heads"`
}

// HeadsResponse is the reply: the responder's cosigned frontier and every
// equivocation proof it can prove.
type HeadsResponse struct {
	Witness string              `json:"witness"`
	Heads   []GossipHead        `json:"heads,omitempty"`
	Proofs  []EquivocationProof `json:"proofs,omitempty"`
}

// WitnessInfo is the public identity of a witness.
type WitnessInfo struct {
	Name      string   `json:"name"`
	PublicKey []byte   `json:"public_key"` // 96-byte compressed BLS key
	Sources   []string `json:"sources"`
}

// HandleGossip ingests a gossip/pollinate frame and builds the response:
// the whole frame is verified in one batched pairing check (IngestBatch),
// and the reply carries this witness's cosigned frontier for every source
// plus all proofs.
func (w *Witness) HandleGossip(msg *HeadsMessage) *HeadsResponse {
	if msg != nil {
		w.IngestBatch(msg.Heads)
	}
	return &HeadsResponse{
		Witness: w.Name(),
		Heads:   w.FrontierHeads(),
		Proofs:  w.Proofs(),
	}
}

// Info returns the witness's public identity.
func (w *Witness) Info() WitnessInfo {
	kb := w.pk.Bytes()
	return WitnessInfo{
		Name:      w.name,
		PublicKey: kb[:],
		Sources:   w.SourceNames(),
	}
}

// Register installs the witness's RPC handlers on a transport server.
func (w *Witness) Register(srv *transport.Server) {
	headsHandler := func(body json.RawMessage) (any, error) {
		var msg HeadsMessage
		if err := json.Unmarshal(body, &msg); err != nil {
			return nil, err
		}
		return w.HandleGossip(&msg), nil
	}
	// gossip_heads and pollinate share semantics; the kinds stay separate
	// so operators can firewall or rate-limit the client path on its own.
	srv.Handle(KindGossipHeads, headsHandler)
	srv.Handle(KindPollinate, headsHandler)
	srv.Handle(KindWitnessInfo, func(json.RawMessage) (any, error) {
		return w.Info(), nil
	})
}

// Peer is the client side of another witness's RPC surface. It rides a
// managed client (reconnect, retry/backoff, circuit breaker): every
// Peer RPC kind is idempotent — gossip merges are monotone — so the
// managed retry policy is safe here by construction.
type Peer struct {
	c *transport.ManagedClient
}

// DialPeer returns a Peer for the witness at addr. No connection is
// made until the first call.
func DialPeer(addr string, opts transport.ManagedOptions) *Peer {
	return &Peer{c: transport.DialManaged(addr, opts)}
}

// GossipHeads exchanges frontier frames with the peer.
func (p *Peer) GossipHeads(msg *HeadsMessage) (*HeadsResponse, error) {
	var resp HeadsResponse
	if err := p.c.Call(KindGossipHeads, msg, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Info fetches the peer's identity.
func (p *Peer) Info() (*WitnessInfo, error) {
	var resp WitnessInfo
	if err := p.c.Call(KindWitnessInfo, struct{}{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RoundSummary reports one gossip round.
type RoundSummary struct {
	Peers     int // peers successfully exchanged with
	NewProofs int // proofs learned or produced during the round
}

// Round performs one gossip round: push this witness's cosigned frontier
// to every peer, then merge each peer's frontier, cosignatures, and
// proofs. A deployment of honest witnesses converges to a shared cosigned
// frontier per source in one round; a forked source is convicted in one
// round because the witnesses' first-contact heads collide by size.
func (w *Witness) Round(peers []*Peer) (*RoundSummary, error) {
	before := len(w.Proofs())
	msg := &HeadsMessage{From: w.Name(), Heads: w.FrontierHeads()}
	sum := &RoundSummary{}
	var firstErr error
	for _, p := range peers {
		resp, err := p.GossipHeads(msg)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("gossip: round: %w", err)
			}
			continue
		}
		sum.Peers++
		w.IngestBatch(resp.Heads)
		for i := range resp.Proofs {
			// Invalid proofs from a peer are dropped, not fatal.
			_ = w.AddProof(&resp.Proofs[i])
		}
	}
	sum.NewProofs = len(w.Proofs()) - before
	if sum.Peers == 0 && firstErr != nil {
		return sum, firstErr
	}
	return sum, nil
}
