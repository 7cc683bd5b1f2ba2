// Command auditord runs one witness in the gossip network: it pulls
// BLS-signed tree heads (plus consistency proofs) from the monitors it
// watches, advances a per-source cosigned frontier, exchanges frontiers
// with peer witnesses, and serves the client "pollination" path. A forked
// monitor — one that shows different logs to different witnesses — is
// convicted within one gossip round by a portable equivocation proof any
// third party can verify offline (gossip.VerifyEquivocationProof).
//
//	auditord -name w1 -listen 127.0.0.1:7171 \
//	         -sources monitor=127.0.0.1:7070 \
//	         -peers 127.0.0.1:7172,127.0.0.1:7173 \
//	         -interval 5s
//
// Protocol (framed JSON, see internal/transport and internal/gossip):
//
//	gossip_heads {from, heads}  -> witness-to-witness frontier exchange
//	pollinate    {heads}        -> client path: submit seen heads, get the
//	                               cosigned frontier + equivocation proofs
//	witness_info {}             -> witness identity (name, cosigning key)
//	subscribe    {from?}        -> register this connection for pushes of
//	                               the witness's cosigned frontier (one
//	                               "_batch" frame of push_heads per flush)
//	                               until the connection closes
//	pull         {}             -> with -debug-hooks only: fetch
//	                               head+consistency from every source now
//
// The -interval tick pulls, gossips with every peer and publishes.
//
// With -subscribe the witness additionally opens a push channel TO each
// source: monitors push each new BLS-signed head the moment it exists,
// the witness verifies consistency and cosigns immediately, and its own
// subscribers receive the refreshed cosigned frontier — split-view
// detection latency drops from a polling interval to one push hop.
//
// Source and peer keys are fetched at startup (trust-on-first-use for the
// demo; a production deployment pins them in configuration).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/daemon"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/transport"
)

var (
	h      = daemon.New("auditord", flag.CommandLine, true)
	logger = h.Log

	name      = flag.String("name", "witness", "this witness's name")
	listen    = flag.String("listen", "127.0.0.1:0", "listen address")
	sources   = flag.String("sources", "", "comma-separated name=addr monitor list")
	peers     = flag.String("peers", "", "comma-separated peer witness addresses")
	interval  = flag.Duration("interval", 0, "automatic pull+gossip period (0 = RPC-driven only)")
	subscribe = flag.Bool("subscribe", false, "subscribe to head pushes from every source instead of relying on polling alone")

	lagDeadline = flag.Duration("lag-deadline", 30*time.Second, "frontier-lag watchdog deadline: how long the worst source lag may stay above -lag-threshold before the witness degrades (0 disables)")
	lagMax      = flag.Uint64("lag-threshold", 1024, "frontier-lag watchdog threshold (leaves)")
	rpcTimeout  = flag.Duration("rpc-timeout", 10*time.Second, "per-call deadline (and connect timeout) on RPCs to sources and peers; 0 disables")
)

// sourceConn is one watched monitor. The connection is managed — lazy
// reconnect, retry/backoff, circuit breaker — so a monitor restart or a
// transient partition costs a retried call, not a dead witness.
type sourceConn struct {
	name string
	addr string
	conn *transport.ManagedClient
}

type monitorInfo struct {
	Name   string `json:"name"`
	BLSKey []byte `json:"bls_key"`
	Shards int    `json:"shards"`
	Size   uint64 `json:"size"`
}

type pullResponse struct {
	Heads  []gossip.GossipHead `json:"heads"`
	Errors []string            `json:"errors,omitempty"`
}

// node is the running witness with what its RPC handlers and background
// loops drive: the sources it pulls, the peers it gossips with, and the
// hub pushing its cosigned frontier to downstream clients and witnesses.
type node struct {
	w     *gossip.Witness
	srcs  []*sourceConn
	peers []*gossip.Peer
	hub   *serve.Hub
}

func main() {
	flag.Parse()
	if *sources == "" {
		h.Fatal("need at least one -sources name=addr entry")
	}
	h.Start()
	defer h.Flight.DumpOnPanic(h.DiagDir, h.Name)
	bls.RegisterMetrics(h.Reg)
	bls12381.RegisterMetrics(h.Reg)

	// Every source and peer RPC kind this witness issues is idempotent
	// (head/consistency reads and monotone gossip merges), so the managed
	// client's retry policy is safe across the board.
	mopts := transport.ManagedOptions{
		ConnectTimeout: *rpcTimeout,
		CallTimeout:    *rpcTimeout,
		Dial:           h.Inj.Dial,
		OnRetry: func(kind string, attempt int, err error) {
			logger.Warn("rpc retry", "kind", kind, "attempt", attempt, "err", err)
		},
	}

	var w *gossip.Witness
	if h.DataDir != "" {
		// Persistent witness: stable cosigning identity, and the evidence
		// base (recorded heads, cosignatures, equivocation proofs)
		// survives restarts — frontiers resume instead of re-TOFUing.
		witness, rec, err := gossip.OpenWitness(h.DataDir, gossip.Config{Name: *name})
		if err != nil {
			h.Fatal("opening witness journal", "err", err, "data", h.DataDir)
		}
		w = witness
		logger.Info("recovered evidence", "heads", rec.Heads, "cosigs", rec.Cosigs, "proofs", rec.Proofs)
	} else {
		key, _, err := bls.GenerateKey()
		if err != nil {
			h.Fatal("keygen", "err", err)
		}
		w, err = gossip.NewWitness(gossip.Config{Name: *name, Key: key})
		if err != nil {
			h.Fatal("creating witness", "err", err)
		}
	}
	w.RegisterMetrics(h.Reg)
	w.SetFlightRecorder(h.Flight)
	// A witness whose evidence journal can no longer be written must not
	// look ready: its cosignatures would not survive a restart.
	h.Health.Set("witness-journal", w.Err)
	// A frontier stuck far behind the largest signed size seen means
	// this witness cannot advance (missing consistency proofs, a wedged
	// source, or an equivocating log): degraded, with profiles.
	if *lagDeadline > 0 {
		h.Dogs.AddProbe("gossip-frontier-lag", *lagDeadline, func() (bool, string) {
			if lag := w.FrontierLagMax(); lag > *lagMax {
				return true, fmt.Sprintf("worst source lag %d leaves", lag)
			}
			return false, ""
		})
	}
	n := &node{w: w, hub: serve.NewHub(*name)}
	defer n.hub.Close()

	// Connect to sources; fetch their tree-head keys (TOFU for the demo).
	for _, entry := range strings.Split(*sources, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), "=", 2)
		if len(parts) != 2 {
			h.Fatal("bad -sources entry (want name=addr)", "entry", entry)
		}
		sc := &sourceConn{name: parts[0], addr: parts[1]}
		sc.conn = transport.DialManaged(sc.addr, mopts)
		var info monitorInfo
		if err := sc.conn.Call("info", struct{}{}, &info); err != nil {
			h.Fatal("fetching source identity", "source", sc.name, "err", err)
		}
		pk := new(bls.PublicKey)
		if err := pk.SetBytes(info.BLSKey); err != nil {
			h.Fatal("bad source BLS key", "source", sc.name, "err", err)
		}
		if err := w.AddSource(gossip.Source{Name: sc.name, Key: pk}); err != nil {
			h.Fatal("adding source", "source", sc.name, "err", err)
		}
		logger.Info("watching source", "source", sc.name, "addr", sc.addr, "size", info.Size)
		n.srcs = append(n.srcs, sc)
	}

	// Connect to peers; accept their cosigning keys (TOFU for the demo).
	// Peers ride managed clients too: a peer witness that restarts or
	// drops mid-round is retried and, if persistently dead, its circuit
	// opens so rounds skip it cheaply until it heals.
	if *peers != "" {
		for _, addr := range strings.Split(*peers, ",") {
			p := gossip.DialPeer(strings.TrimSpace(addr), mopts)
			info, err := p.Info()
			if err != nil {
				h.Fatal("fetching peer identity", "peer", addr, "err", err)
			}
			pk := new(bls.PublicKey)
			if err := pk.SetBytes(info.PublicKey); err != nil {
				h.Fatal("bad peer key", "peer", addr, "err", err)
			}
			if err := w.AddWitness(pk); err != nil {
				h.Fatal("adding peer witness", "peer", addr, "err", err)
			}
			n.peers = append(n.peers, p)
		}
	}

	srv := transport.NewServer()
	w.Register(srv)
	if h.DebugHooks {
		// Test-only: the e2e drills pull on demand instead of waiting
		// for the -interval tick.
		srv.Handle("pull", func(json.RawMessage) (any, error) {
			errs := n.pull()
			n.publishFrontier()
			return pullResponse{Heads: w.FrontierHeads(), Errors: errs}, nil
		})
	}
	serve.RegisterHub(srv, n.hub, w.FrontierHeads)

	// With -subscribe, open a push channel from every source: pushed
	// heads are verified+cosigned the moment they arrive, and the
	// refreshed frontier is pushed onward to this witness's subscribers.
	if *subscribe {
		for _, sc := range n.srcs {
			worker, err := n.subscribeSource(sc, *rpcTimeout, h.Inj.Dial)
			if err != nil {
				h.Fatal("subscribing to source", "source", sc.name, "err", err)
			}
			h.Go(worker)
		}
	}

	addr := h.Serve(srv, *listen, obsv.DefaultWitnessSLOs())
	kb := w.PublicKey().Bytes()
	logger.Info("serving", "addr", addr.String(), "sources", len(n.srcs),
		"peers", len(n.peers), "subscribed", *subscribe,
		"cosigning_key", fmt.Sprintf("%x", kb[:]))

	if *interval > 0 {
		h.Every(*interval, n.round)
	}

	// The journal flushes last, after every loop that ingests is joined.
	h.Run(w.Close)
	if h.DataDir != "" {
		logger.Info("journal flushed", "data", h.DataDir)
	}
}

// pull fetches every source, tolerating per-source failures: one dead
// monitor must not stop this witness from gossiping the frontiers and
// proofs it holds for the healthy ones.
func (n *node) pull() []string {
	var errs []string
	for _, sc := range n.srcs {
		if err := pullSource(n.w, sc); err != nil {
			logger.Warn("pull failed", "source", sc.name, "err", err)
			errs = append(errs, err.Error())
		}
	}
	return errs
}

// publishFrontier pushes the cosigned frontier to this witness's subscribers.
func (n *node) publishFrontier() { n.hub.Publish(n.w.FrontierHeads()) }

// round is the -interval tick: pull, gossip with every peer and publish.
func (n *node) round(time.Time) {
	n.pull() // per-source failures already logged; keep gossiping
	if sum, err := n.w.Round(n.peers); err != nil {
		logger.Warn("gossip round failed", "err", err)
	} else if sum.NewProofs > 0 {
		logger.Warn("new equivocation proofs", "count", sum.NewProofs)
	}
	n.publishFrontier()
}

// subscribeSource opens a self-healing push channel to one source (the
// polling connection stays synchronous request/response): a
// serve.Redial subscriber redials with jittered backoff whenever the
// connection dies and re-subscribes, and its per-source guard outlives
// the connections — so across any number of reconnects the worker sees
// one non-regressing head sequence with no ack-replayed duplicates.
// timeout bounds each dial and each call on the channel. Pushed heads
// are processed off the read loop: a mailbox keeps only the latest
// pushed head, and the returned worker (run it with Harness.Go) fetches
// the consistency proof bridging the witness's frontier (over the same
// subscribed connection, pinned to the pushed size so a growing log
// cannot outrun it), ingests, and publishes the refreshed cosigned
// frontier onward. While the channel is down the polling path keeps the
// witness correct; the subscription catches back up on its own when the
// source heals. The worker closes the channel when it stops.
func (n *node) subscribeSource(sc *sourceConn, timeout time.Duration, dial func(addr string, timeout time.Duration) (net.Conn, error)) (worker func(stop <-chan struct{}), err error) {
	w := n.w
	dialTimeout := timeout
	if dialTimeout <= 0 {
		dialTimeout = transport.DefaultDialTimeout
	}
	var mu sync.Mutex
	var latest *gossip.GossipHead
	kick := make(chan struct{}, 1)
	// Dial through the injector so chaos schedules partition the push
	// channel too (a nil injector dials plainly).
	sub := serve.Redial(func() (net.Conn, error) { return dial(sc.addr, dialTimeout) }, timeout)
	sub.OnHeads = func(_ string, heads []gossip.GossipHead) {
		// Read-loop context: park the newest head and return. Calling
		// sub.Call here would deadlock (the response needs this loop).
		mu.Lock()
		latest = &heads[len(heads)-1]
		mu.Unlock()
		select {
		case kick <- struct{}{}:
		default:
		}
	}
	sub.OnState = func(event string, err error) {
		switch event {
		case "connected":
			logger.Info("push channel up", "source", sc.name)
		case "disconnected":
			logger.Warn("push channel lost, reconnecting (polling continues)", "source", sc.name, "err", err)
		}
	}
	if err := sub.Subscribe(w.Name()); err != nil {
		return nil, err
	}
	return func(stop <-chan struct{}) {
		defer sub.Close()
		for {
			select {
			case <-stop:
				return
			case <-kick:
			}
			mu.Lock()
			gh := latest
			latest = nil
			mu.Unlock()
			if gh == nil {
				continue
			}
			if err := ingestHead(w, sc.name, gh.Head, sub.Call); err != nil {
				logger.Warn("ingesting pushed head failed", "source", sc.name, "size", gh.Head.Size, "err", err)
				continue
			}
			n.publishFrontier()
		}
	}, nil
}

// pullSource fetches the source's current BLS head and ingests it.
func pullSource(w *gossip.Witness, sc *sourceConn) error {
	var head aolog.BLSSignedHead
	if err := sc.conn.Call("headbls", struct{}{}, &head); err != nil {
		return fmt.Errorf("auditord: head from %s: %w", sc.name, err)
	}
	return ingestHead(w, sc.name, head, sc.conn.Call)
}

// ingestHead is the one ingest path, for pulled and pushed heads alike:
// it fetches the consistency proof from the witness's cosigned frontier
// to head over call, the connection head came from — pinned to head's
// size, so a log that grows meanwhile cannot outrun it — and ingests
// both.
func ingestHead(w *gossip.Witness, source string, head aolog.BLSSignedHead, call func(kind string, in, out any) error) error {
	var cons *aolog.ShardConsistencyProof
	if front, ok := w.Frontier(source); ok && head.Size > front.Size {
		cons = new(aolog.ShardConsistencyProof)
		req := serve.ConsistencyRequest{OldSize: int(front.Size), NewSize: int(head.Size)}
		if err := call("consistency", req, cons); err != nil {
			return fmt.Errorf("auditord: consistency from %s: %w", source, err)
		}
	}
	res := w.Ingest(source, head, cons)
	if res.Err != nil {
		return fmt.Errorf("auditord: ingesting %s head: %w", source, res.Err)
	}
	if res.Proof != nil {
		logger.Warn("source convicted of equivocation", "source", source, "size", head.Size)
	}
	return nil
}
