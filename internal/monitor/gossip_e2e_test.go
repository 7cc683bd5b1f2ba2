package monitor

import (
	"encoding/json"
	"testing"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/gossip"
	"repro/internal/transport"
)

// serveMonitor exposes the subset of monitord's RPC surface the gossip
// layer uses (headbls, consistency, gossipreport) over real transport.
func serveMonitor(t *testing.T, m *Monitor) string {
	t.Helper()
	srv := transport.NewServer()
	srv.Handle("headbls", func(json.RawMessage) (any, error) {
		return m.TreeHeadBLS()
	})
	srv.Handle("consistency", func(body json.RawMessage) (any, error) {
		var req struct {
			OldSize int `json:"old_size"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return m.ProveConsistencyBetween(req.OldSize, m.Len())
	})
	srv.Handle("gossipreport", func(body json.RawMessage) (any, error) {
		var proof gossip.EquivocationProof
		if err := json.Unmarshal(body, &proof); err != nil {
			return nil, err
		}
		idx, err := m.RecordLogEquivocation(&proof)
		if err != nil {
			return nil, err
		}
		return map[string]int{"log_index": idx}, nil
	})
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// pullHead fetches a monitor's BLS head (and, when the witness already
// has a frontier, a consistency proof) over transport and ingests it —
// what auditord's pull loop does.
func pullHead(t *testing.T, w *gossip.Witness, source, addr string) gossip.IngestResult {
	t.Helper()
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var head aolog.BLSSignedHead
	if err := conn.Call("headbls", struct{}{}, &head); err != nil {
		t.Fatal(err)
	}
	var cons *aolog.ShardConsistencyProof
	if front, ok := w.Frontier(source); ok && head.Size > front.Size {
		cons = new(aolog.ShardConsistencyProof)
		req := struct {
			OldSize int `json:"old_size"`
		}{OldSize: int(front.Size)}
		if err := conn.Call("consistency", req, cons); err != nil {
			t.Fatal(err)
		}
	}
	return w.Ingest(source, head, cons)
}

// TestGossipConvictsForkedMonitor is the adversarial end-to-end scenario:
// a monitor forks its public log, showing client A's submissions to part
// of the witness set and client B's to the rest. Each individual view is
// internally consistent — no single observer can tell. Three witnesses
// exchange one gossip round, produce a portable equivocation proof, the
// audit package verifies it as a Misbehavior, and an honest monitor's
// slashing path records it in its own public log.
func TestGossipConvictsForkedMonitor(t *testing.T) {
	f := newFixture(t)
	fw := f.newFramework(t, blsapp.ModuleBytes())

	// The forked monitor: one BLS tree-head identity, two diverging logs.
	forkKey, forkPub, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	viewA := New(f.params, forkKey)
	viewB := New(f.params, forkKey)

	// Two clients gossip their (individually valid) observations — but
	// the monitor routes each client's submissions to a different log.
	for _, nonce := range []string{"clientA-1", "clientA-2"} {
		if _, _, err := viewA.Submit(envelope(fw, nonce)); err != nil {
			t.Fatal(err)
		}
	}
	for _, nonce := range []string{"clientB-1", "clientB-2"} {
		if _, _, err := viewB.Submit(envelope(fw, nonce)); err != nil {
			t.Fatal(err)
		}
	}

	addrA := serveMonitor(t, viewA)
	addrB := serveMonitor(t, viewB)

	// Three witnesses; the fork shows view A to w1 and w2, view B to w3.
	newW := func(name string, others ...*gossip.Witness) *gossip.Witness {
		sk, _, err := bls.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		cfg := gossip.Config{Name: name, Key: sk,
			Sources: []gossip.Source{{Name: "mon", Key: forkPub}}}
		for _, o := range others {
			cfg.Witnesses = append(cfg.Witnesses, o.PublicKey())
		}
		w, err := gossip.NewWitness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range others {
			if err := o.AddWitness(w.PublicKey()); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	w1 := newW("w1")
	w2 := newW("w2", w1)
	w3 := newW("w3", w1, w2)

	for _, wv := range []struct {
		w    *gossip.Witness
		addr string
	}{{w1, addrA}, {w2, addrA}, {w3, addrB}} {
		if res := pullHead(t, wv.w, "mon", wv.addr); !res.Accepted {
			t.Fatalf("%s rejected its view: %+v", wv.w.Name(), res)
		}
	}

	// Serve the witnesses and run ONE gossip round from w1.
	srvAddrs := make(map[*gossip.Witness]string)
	for _, w := range []*gossip.Witness{w1, w2, w3} {
		srv := transport.NewServer()
		w.Register(srv)
		addr, err := srv.ListenAndServe()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvAddrs[w] = addr
	}
	var peers []*gossip.Peer
	for _, w := range []*gossip.Witness{w2, w3} {
		p := gossip.DialPeer(srvAddrs[w], transport.ManagedOptions{})
		defer p.Close()
		peers = append(peers, p)
	}
	sum, err := w1.Round(peers)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NewProofs == 0 {
		t.Fatal("one gossip round did not convict the forked monitor")
	}
	proofs := w1.Proofs()
	if len(proofs) == 0 {
		t.Fatal("no proof recorded")
	}
	proof := proofs[0]

	// The proof is portable: it verifies offline from its own bytes.
	blob, err := json.Marshal(&proof)
	if err != nil {
		t.Fatal(err)
	}
	var standalone gossip.EquivocationProof
	if err := json.Unmarshal(blob, &standalone); err != nil {
		t.Fatal(err)
	}
	if err := gossip.VerifyEquivocationProof(&standalone); err != nil {
		t.Fatalf("standalone verification failed: %v", err)
	}

	// The audit layer accepts it as a publicly verifiable Misbehavior.
	mb := audit.Misbehavior{
		Kind:   audit.MisbehaviorLogEquivocation,
		Domain: "mon",
		Gossip: &standalone,
	}
	if err := audit.VerifyMisbehavior(&f.params, &mb); err != nil {
		t.Fatalf("audit rejected the gossip conviction: %v", err)
	}

	// Slashing path: an honest monitor records the conviction in its own
	// public, Merkle-logged state (over transport, like monitord does).
	honest := New(f.params, mustKey(t))
	addrH := serveMonitor(t, honest)
	conn, err := transport.Dial(addrH)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var rec map[string]int
	// Before the forked monitor's key is registered as slashable, the
	// report is rejected — a proof for an arbitrary self-generated key
	// is spam, not evidence.
	if err := conn.Call("gossipreport", &standalone, &rec); err == nil {
		t.Fatal("slashing path accepted a proof for an unregistered key")
	}
	if err := honest.RegisterLogSource(forkPub); err != nil {
		t.Fatal(err)
	}
	if err := conn.Call("gossipreport", &standalone, &rec); err != nil {
		t.Fatalf("slashing path rejected the proof: %v", err)
	}
	alerts := honest.Alerts()
	if len(alerts) != 1 || alerts[0].Kind != audit.MisbehaviorLogEquivocation {
		t.Fatalf("slashing alert not recorded: %+v", alerts)
	}
	if err := audit.VerifyMisbehavior(&f.params, &alerts[0]); err != nil {
		t.Fatalf("recorded alert does not verify: %v", err)
	}
	// The conviction is itself transparency-logged and provable.
	head := signedHead(t, honest)
	payload, incl, err := honest.ProveInclusionAt(rec["log_index"], int(head.Size))
	if err != nil {
		t.Fatal(err)
	}
	if !aolog.VerifyShardInclusion(payload, incl, head.Head) {
		t.Fatal("recorded conviction not provable in the honest monitor's log")
	}
	// A tampered proof is rejected by the slashing path.
	bad := standalone
	bad.A.Size++
	if _, err := honest.RecordLogEquivocation(&bad); err == nil {
		t.Fatal("slashing path recorded a bogus proof")
	}
	// Replaying the same conviction is idempotent: same log index, no
	// alert growth — looping a valid proof cannot inflate the ledger.
	idx2, err := honest.RecordLogEquivocation(&standalone)
	if err != nil {
		t.Fatal(err)
	}
	if idx2 != rec["log_index"] {
		t.Fatalf("replay recorded at %d, original at %d", idx2, rec["log_index"])
	}
	// The swapped-heads variant of a same-size proof is the same
	// conviction and must hit the same ledger entry.
	if standalone.A.Size == standalone.B.Size {
		swapped := standalone
		swapped.A, swapped.B = swapped.B, swapped.A
		idx3, err := honest.RecordLogEquivocation(&swapped)
		if err != nil {
			t.Fatal(err)
		}
		if idx3 != rec["log_index"] {
			t.Fatalf("swapped replay recorded at %d, original at %d", idx3, rec["log_index"])
		}
	}
	if got := honest.Alerts(); len(got) != 1 {
		t.Fatalf("replay grew the alert list to %d", len(got))
	}

	// Client pollination: an audit client that saw view A pins the three
	// witnesses with quorum 2; one pollination round surfaces the
	// conviction, and acceptance of the surviving head costs a single
	// batched pairing check.
	ws := &audit.WitnessSet{Quorum: 2}
	for _, w := range []*gossip.Witness{w1, w2, w3} {
		ws.Witnesses = append(ws.Witnesses, audit.WitnessEndpoint{
			Name: w.Name(), Addr: srvAddrs[w], Key: w.PublicKey(),
		})
	}
	client := audit.NewClient(f.params)
	defer client.Close()
	headA, err := viewA.TreeHeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.AuditSourceWithWitnesses(ws, "mon", forkPub,
		[]gossip.GossipHead{{Source: "mon", Head: headA}})
	if err != nil {
		t.Fatalf("witness-quorum audit: %v", err)
	}
	if len(res.Proofs) == 0 {
		t.Fatal("pollination did not surface the equivocation")
	}
	for i := range res.Proofs {
		if err := gossip.VerifyEquivocationProof(&res.Proofs[i]); err != nil {
			t.Fatalf("client-surfaced proof %d invalid: %v", i, err)
		}
	}
}
