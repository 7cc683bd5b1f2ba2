package audit

import (
	"fmt"
	"testing"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/gossip"
	"repro/internal/transport"
)

// witnessFixture spins up live witnesses over transport for the client
// pollination path.
type witnessFixture struct {
	srcSK  *bls.SecretKey
	srcPK  *bls.PublicKey
	log    *aolog.ShardedLog
	ws     []*gossip.Witness
	set    *WitnessSet
	client *Client
}

func newWitnessFixture(t *testing.T, n, quorum int) *witnessFixture {
	t.Helper()
	srcSK, srcPK, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	log, err := aolog.NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	f := &witnessFixture{srcSK: srcSK, srcPK: srcPK, log: log,
		set: &WitnessSet{Quorum: quorum}}
	for i := 0; i < n; i++ {
		sk, _, err := bls.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		w, err := gossip.NewWitness(gossip.Config{Name: fmt.Sprintf("w%d", i), Key: sk})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddSource(gossip.Source{Name: "mon", Key: srcPK}); err != nil {
			t.Fatal(err)
		}
		f.ws = append(f.ws, w)
	}
	for _, w := range f.ws {
		srv := transport.NewServer()
		w.Register(srv)
		addr, err := srv.ListenAndServe()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		f.set.Witnesses = append(f.set.Witnesses, WitnessEndpoint{
			Name: w.Name(), Addr: addr, Key: w.PublicKey(),
		})
	}
	f.client = NewClient(Params{})
	t.Cleanup(f.client.Close)
	return f
}

func (f *witnessFixture) grow(t *testing.T, n int) aolog.BLSSignedHead {
	t.Helper()
	for i := 0; i < n; i++ {
		f.log.Append([]byte(fmt.Sprintf("entry-%d", f.log.Len())))
	}
	return aolog.SignHeadBLS(f.srcSK, uint64(f.log.Len()), f.log.SuperRoot())
}

// TestAuditSourcePrefersQuorumHead: one witness has raced ahead to a
// fresher head only it has cosigned; the other two stand behind an older
// head. The client must accept the older, quorum-cosigned head instead of
// failing on the fresher minority head.
func TestAuditSourcePrefersQuorumHead(t *testing.T) {
	f := newWitnessFixture(t, 3, 2)
	h5 := f.grow(t, 5)
	for _, w := range f.ws {
		if res := w.Ingest("mon", h5, nil); !res.Accepted {
			t.Fatalf("%s rejected h5: %+v", w.Name(), res)
		}
	}
	// Only witness 0 advances to size 8.
	h8 := f.grow(t, 3)
	cons, err := f.log.ProveConsistencyBetween(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res := f.ws[0].Ingest("mon", h8, cons); !res.Accepted {
		t.Fatalf("w0 rejected h8: %+v", res)
	}

	res, err := f.client.AuditSourceWithWitnesses(f.set, "mon", f.srcPK,
		[]gossip.GossipHead{{Source: "mon", Head: h5}})
	if err != nil {
		t.Fatalf("quorum head vetoed by a fresher minority head: %v", err)
	}
	if res.Head == nil || res.Head.Cosigned.Head.Size != 5 {
		t.Fatalf("accepted head: %+v, want the quorum-cosigned size 5", res.Head)
	}
	if res.Head.Witnesses < 2 {
		t.Fatalf("accepted with %d pinned cosigners, want >= 2", res.Head.Witnesses)
	}
	if len(res.Proofs) != 0 {
		t.Fatalf("honest growth produced proofs: %d", len(res.Proofs))
	}
}

// TestAuditSourceMatchesByKeyNotLabel: witnesses configured a different
// local label for the source; the client still finds the frontier because
// witness responses carry the source's BLS key.
func TestAuditSourceMatchesByKeyNotLabel(t *testing.T) {
	f := newWitnessFixture(t, 3, 2)
	// Re-register the source under a witness-local alias.
	for i, w := range f.ws {
		if err := w.AddSource(gossip.Source{Name: fmt.Sprintf("alias-%d", i), Key: f.srcPK}); err == nil {
			// Same key under two names is fine; ingest under the alias.
			continue
		}
	}
	h := f.grow(t, 4)
	for i, w := range f.ws {
		if res := w.Ingest(fmt.Sprintf("alias-%d", i), h, nil); !res.Accepted {
			t.Fatalf("w%d rejected head: %+v", i, res)
		}
	}
	res, err := f.client.AuditSourceWithWitnesses(f.set, "monitor-as-the-client-knows-it",
		f.srcPK, nil)
	if err != nil {
		t.Fatalf("label mismatch broke key-based matching: %v", err)
	}
	if res.Head == nil || res.Head.Cosigned.Head.Size != 4 {
		t.Fatalf("accepted head: %+v", res.Head)
	}
}
