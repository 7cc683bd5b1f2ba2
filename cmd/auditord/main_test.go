package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/daemon"
	"repro/internal/gossip"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/transport"
)

// TestFlagSurface pins auditord's command line — every flag name with its
// default — to what it was before the daemons moved onto
// internal/daemon: bench/ and internal/e2e start the daemons with these
// flags, and operators' unit files do too. Usage strings may change;
// names and defaults may not.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"data": "", "debug-hooks": "false", "fault-schedule": "",
		"fault-target": "auditord", "interval": "0s", "lag-deadline": "30s",
		"lag-threshold": "1024", "listen": "127.0.0.1:0", "metrics": "",
		"name": "witness", "peers": "", "rpc-timeout": "10s", "slo-interval": "10s",
		"sources": "", "subscribe": "false", "trace": "64",
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got[f.Name] = f.DefValue
		}
	})
	for name, def := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("new flag -%s (default %q)", name, def)
		} else if w != def {
			t.Errorf("-%s defaults to %q, want %q", name, def, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("flag -%s is gone", name)
		}
	}
}

// TestShutdownJoinsLoopsBeforeJournalCloses is the shutdown race: the
// -interval loop and the push workers used to outlive Witness.Close, so
// a tick or a push landing in that window ingested and cosigned against
// a nil journal and published a frontier that was never journaled. A
// round is held in the middle of its pull while the harness shuts down:
// Shutdown must wait for it, and once Shutdown has returned no further
// round may start. Every round begins by calling its source and ingests
// and publishes only after, so a source that sees no more calls and an
// ingestion counter that stands still mean nothing was ingested or
// published after Close.
func TestShutdownJoinsLoopsBeforeJournalCloses(t *testing.T) {
	fx, err := loadtest.NewFixture(8)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	var calls atomic.Int64
	var gate atomic.Pointer[chan struct{}] // non-nil: headbls parks on it
	entered := make(chan struct{}, 1)
	msrv := transport.NewServer()
	fx.Tier.Register(msrv)
	msrv.Handle("headbls", func(json.RawMessage) (any, error) {
		calls.Add(1)
		if g := gate.Load(); g != nil {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-*g
		}
		return fx.Tier.HeadBLS()
	})
	monAddr, err := msrv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()

	w, _, err := gossip.OpenWitness(t.TempDir(), gossip.Config{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddSource(gossip.Source{Name: "mon", Key: fx.Mon.BLSPublicKey()}); err != nil {
		t.Fatal(err)
	}
	sc := &sourceConn{name: "mon", addr: monAddr, conn: transport.DialManaged(monAddr, transport.ManagedOptions{})}
	defer sc.conn.Close()
	n := &node{w: w, srcs: []*sourceConn{sc}, hub: serve.NewHub("w")}
	defer n.hub.Close()

	fs := flag.NewFlagSet("auditord", flag.ContinueOnError)
	th := daemon.New("auditord", fs, true)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	th.Start()
	w.RegisterMetrics(th.Reg)
	wsrv := transport.NewServer()
	w.Register(wsrv)
	th.Serve(wsrv, "127.0.0.1:0", nil)
	worker, err := n.subscribeSource(sc, time.Second, func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	})
	if err != nil {
		t.Fatal(err)
	}
	th.Go(worker)
	const every = 5 * time.Millisecond
	th.Go(func(stop <-chan struct{}) { n.roundLoop(every, stop) })

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the loops to ingest the source's head and the push channel to come up", func() bool {
		_, ok := w.Frontier("mon")
		return ok && calls.Load() >= 2 && fx.Tier.Hub().Subscribers() == 1
	})

	// Hold the next round inside its pull, then shut down around it.
	held := make(chan struct{})
	gate.Store(&held)
	<-entered
	shut := make(chan error, 1)
	go func() { shut <- th.Shutdown(w.Close) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while a round was still in flight", err)
	case <-time.After(20 * every):
	}
	gate.Store(nil)
	close(held)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	callsAtClose := calls.Load()
	ingestedAtClose := th.Reg.Value("gossip_heads_ingested_total")
	time.Sleep(20 * every)
	if got := calls.Load(); got != callsAtClose {
		t.Errorf("source saw %d more calls after Shutdown returned: a round ran against the closed journal", got-callsAtClose)
	}
	if got := th.Reg.Value("gossip_heads_ingested_total"); got != ingestedAtClose {
		t.Errorf("witness ingested %v more heads after Shutdown returned", got-ingestedAtClose)
	}
	waitFor("the push worker to have closed its channel to the source", func() bool {
		return fx.Tier.Hub().Subscribers() == 0
	})
}

// TestShutdownSurvivesMuteSource: a source that acks subscribe, pushes
// one head and then never answers again used to block the push worker
// in its consistency call for good — the push channel had no per-call
// deadline — and Shutdown joins the worker, so SIGTERM hung. The call
// now gives up after the channel's timeout: Shutdown returns within a
// few of them, and the pushed head was not ingested.
func TestShutdownSurvivesMuteSource(t *testing.T) {
	fx, err := loadtest.NewFixture(8)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	head, err := fx.Tier.HeadBLS()
	if err != nil {
		t.Fatal(err)
	}

	// The fake source: subscribe is acked and followed by a pushed head
	// past the witness's frontier, repeated until the worker asks for the
	// proof bridging to it; consistency is never answered.
	asked := make(chan struct{})
	var askedOnce sync.Once
	release := make(chan struct{})
	msrv := transport.NewServer()
	msrv.HandlePush(serve.KindSubscribe, func(_ json.RawMessage, p *transport.Pusher) (any, error) {
		body, err := json.Marshal(&gossip.HeadsMessage{From: "mon", Heads: []gossip.GossipHead{
			{Source: "mon", Head: aolog.BLSSignedHead{Size: head.Size + 1}},
		}})
		if err != nil {
			return nil, err
		}
		go func() {
			for p.Push([]transport.Request{{Kind: serve.KindPushHeads, Body: body}}) == nil {
				select {
				case <-asked:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
		return serve.SubscribeResponse{}, nil
	})
	msrv.Handle("consistency", func(json.RawMessage) (any, error) {
		askedOnce.Do(func() { close(asked) })
		<-release
		return nil, errors.New("released at test end")
	})
	monAddr, err := msrv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()
	defer close(release) // before msrv.Close, which waits for the parked handler

	w, _, err := gossip.OpenWitness(t.TempDir(), gossip.Config{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddSource(gossip.Source{Name: "mon", Key: fx.Mon.BLSPublicKey()}); err != nil {
		t.Fatal(err)
	}
	if res := w.Ingest("mon", head, nil); res.Err != nil {
		t.Fatalf("priming the frontier: %v", res.Err)
	}
	sc := &sourceConn{name: "mon", addr: monAddr}
	n := &node{w: w, srcs: []*sourceConn{sc}, hub: serve.NewHub("w")}
	defer n.hub.Close()

	fs := flag.NewFlagSet("auditord", flag.ContinueOnError)
	th := daemon.New("auditord", fs, true)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	th.Start()
	w.RegisterMetrics(th.Reg)
	wsrv := transport.NewServer()
	w.Register(wsrv)
	th.Serve(wsrv, "127.0.0.1:0", nil)
	const callTimeout = 100 * time.Millisecond
	worker, err := n.subscribeSource(sc, callTimeout, func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	})
	if err != nil {
		t.Fatal(err)
	}
	th.Go(worker)
	ingested := th.Reg.Value("gossip_heads_ingested_total")

	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		t.Fatal("the push worker never asked the source for a consistency proof")
	}
	shut := make(chan error, 1)
	go func() { shut <- th.Shutdown(w.Close) }()
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(50 * callTimeout):
		t.Fatal("Shutdown hangs behind a push worker whose source went mute")
	}
	if got := th.Reg.Value("gossip_heads_ingested_total"); got != ingested {
		t.Errorf("witness ingested %v heads from a source that never proved consistency", got-ingested)
	}
	if front, _ := w.Frontier("mon"); front.Size != head.Size {
		t.Errorf("frontier moved to size %d without a consistency proof (was %d)", front.Size, head.Size)
	}
}
