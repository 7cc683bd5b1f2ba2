package serve

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/gossip"
	"repro/internal/transport"
)

// hammerSubscribers is the churn population. The default keeps the
// generic `go test -race ./...` pass fast (the race detector serializes
// 1k goroutines into minutes on one core); the CI serve-load job runs
// the full 1k via SERVE_HAMMER_SUBS=1000.
func hammerSubscribers() int {
	if v := os.Getenv("SERVE_HAMMER_SUBS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 128
}

// memoVerifier deduplicates cosigned-head verification across
// subscribers: the BLS pairings for one pushed head are identical for
// every subscriber, so the first verifier pays and the rest hit the
// memo — the same share-a-verifier structure real client fleets use.
// A verification FAILURE is memoized too, so it cannot hide.
type memoVerifier struct {
	source    *bls.PublicKey
	witnesses []*bls.PublicKey
	quorum    int

	mu   sync.Mutex
	seen map[string]error
}

func (v *memoVerifier) verify(gh *gossip.GossipHead) error {
	key := fmt.Sprintf("%x|%d|%x|%x|%d", gh.SourcePK, gh.Head.Size, gh.Head.Head, gh.Head.Signature, len(gh.Cosigs))
	v.mu.Lock()
	err, ok := v.seen[key]
	v.mu.Unlock()
	if ok {
		return err
	}
	err = gossip.VerifyCosignedHead(v.source, v.witnesses, v.quorum, &gossip.CosignedHead{
		Source:   gh.Source,
		SourcePK: gh.SourcePK,
		Head:     gh.Head,
		Cosigs:   gh.Cosigs,
	})
	v.mu.Lock()
	v.seen[key] = err
	v.mu.Unlock()
	return err
}

// TestSubscriberHammer is the concurrency acceptance test: a large
// population of subscribers over real (in-memory) connections, a third
// of them dropping their connection and subscribing again, while the
// monitor appends and a proactive share refresh runs in the enclave.
// Every pushed head must carry a verifying witness-cosigned quorum, and
// no subscriber may ever observe an out-of-order head. Run it under
// -race.
func TestSubscriberHammer(t *testing.T) {
	f := newFixture(t)
	f.append(t, 2)

	// Three witnesses cosign every published head; clients demand the
	// full quorum.
	const quorum = 3
	witSKs := make([]*bls.SecretKey, quorum)
	witPKs := make([]*bls.PublicKey, quorum)
	for i := range witSKs {
		witSKs[i] = mustKey(t)
		witPKs[i] = witSKs[i].PublicKey()
	}
	pkb := f.mon.BLSPublicKey().Bytes()
	tier := f.attach(t, Options{
		SourcePK: pkb[:],
		cosign: func(h aolog.BLSSignedHead) []gossip.Cosignature {
			msg := gossip.CosignMessage(pkb[:], h.Size, h.Head)
			cosigs := make([]gossip.Cosignature, len(witSKs))
			for i, sk := range witSKs {
				wb := sk.PublicKey().Bytes()
				sb := sk.Sign(msg).Bytes()
				cosigs[i] = gossip.Cosignature{Witness: wb[:], Sig: sb[:]}
			}
			return cosigs
		},
	})

	srv := transport.NewServer()
	tier.Register(srv)
	ln := transport.NewMemListener()
	defer ln.Close()
	go srv.Serve(ln)

	verifier := &memoVerifier{source: f.mon.BLSPublicKey(), witnesses: witPKs, quorum: quorum, seen: make(map[string]error)}
	var verifyFailures atomic.Uint64

	const (
		appendBatches = 6
		batchLeaves   = 3
	)
	finalSize := 2 + appendBatches*batchLeaves

	subs := hammerSubscribers()
	clients := make([]*Subscriber, subs)
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verify := func(gh *gossip.GossipHead) error {
				if err := verifier.verify(gh); err != nil {
					verifyFailures.Add(1)
					return err
				}
				return nil
			}
			if i%3 != 0 {
				conn, err := ln.Dial()
				if err != nil {
					errs <- err
					return
				}
				s := NewSubscriber(conn)
				s.VerifyHead = verify
				clients[i] = s
				if err := s.Subscribe(fmt.Sprintf("client-%d", i)); err != nil {
					errs <- fmt.Errorf("client %d subscribe: %w", i, err)
				}
				return
			}
			// A third of the population churns: drop the connection,
			// linger, and let the subscriber dial and subscribe again —
			// racing the publisher's pushes, with one guard across its
			// connections.
			var live atomic.Pointer[net.Conn]
			up := make(chan struct{}, 1)
			s := Redial(func() (net.Conn, error) {
				conn, err := ln.Dial()
				if err == nil {
					live.Store(&conn)
				}
				return conn, err
			}, 0)
			s.VerifyHead = verify
			s.OnState = func(event string, _ error) {
				if event == "connected" {
					select {
					case up <- struct{}{}:
					default:
					}
				}
			}
			clients[i] = s
			if err := s.Subscribe(fmt.Sprintf("client-%d", i)); err != nil {
				errs <- fmt.Errorf("client %d subscribe: %w", i, err)
				return
			}
			for drops := 0; ; drops++ {
				select {
				case <-up:
				case <-time.After(30 * time.Second):
					errs <- fmt.Errorf("client %d: not subscribed after %d drops", i, drops)
					return
				}
				if drops == 3 {
					return
				}
				(*live.Load()).Close()
				time.Sleep(time.Duration(i%5) * time.Millisecond)
			}
		}(i)
	}

	// Appender: grows the log while subscriptions churn. The monitor's
	// append hook kicks the tier, which signs once and pushes to all.
	appendDone := make(chan error, 1)
	go func() {
		for b := 0; b < appendBatches; b++ {
			if err := f.appendErr(batchLeaves); err != nil {
				appendDone <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		appendDone <- nil
	}()

	// Proactive share refresh concurrent with the hammer: epoch moves
	// inside the enclave, heads keep flowing, nothing contradicts.
	refreshDone := make(chan error, 1)
	go func() {
		ref, err := bls.NewRefresh(f.tk)
		if err != nil {
			refreshDone <- err
			return
		}
		req, err := blsapp.RefreshRequestFor(ref, 0, f.dev)
		if err != nil {
			refreshDone <- err
			return
		}
		_, err = f.fw.Invoke(req)
		refreshDone <- err
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-appendDone; err != nil {
		t.Fatalf("append during hammer: %v", err)
	}
	if err := <-refreshDone; err != nil {
		t.Fatalf("share refresh during hammer: %v", err)
	}

	// Every still-subscribed client converges on the final head.
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range clients {
		for {
			heads := s.Heads()
			if len(heads) == 1 && int(heads[0].Head.Size) == finalSize {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("subscriber stuck at %+v, want size %d", heads, finalSize)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if n := verifyFailures.Load(); n != 0 {
		t.Fatalf("%d pushed heads failed cosigned verification", n)
	}
	var outOfOrder, bad, received uint64
	for _, s := range clients {
		st := s.Stats()
		outOfOrder += st.OutOfOrder
		bad += st.BadFrames
		received += st.Received
	}
	if outOfOrder != 0 {
		t.Fatalf("%d out-of-order heads observed", outOfOrder)
	}
	if bad != 0 {
		t.Fatalf("%d bad frames observed", bad)
	}
	if received == 0 {
		t.Fatal("no heads were pushed at all")
	}
	signed := tier.reg.Value("serve_heads_signed_total")
	if signed > float64(appendBatches)+2 {
		t.Fatalf("signed %v heads for %d append batches: per-client signing leaked back in", signed, appendBatches)
	}
	for _, s := range clients {
		s.Close()
	}
	t.Logf("hammer: %d subscribers, %d heads received, %v signed, %v pushed",
		subs, received, signed, tier.reg.Value("serve_heads_pushed_total"))
}
