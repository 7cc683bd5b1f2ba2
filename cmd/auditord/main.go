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
//	cosign       {source, head, consistency?} -> countersign one head
//	pollinate    {heads}        -> client path: submit seen heads, get the
//	                               cosigned frontier + equivocation proofs
//	witness_info {}             -> witness identity (name, cosigning key)
//	pull         {}             -> fetch head+consistency from every source
//	round        {}             -> pull, then gossip with every peer
//	proofs       {}             -> all equivocation proofs held
//	subscribe    {from?}        -> register this connection for pushes of
//	                               the witness's cosigned frontier (one
//	                               "_batch" frame of push_heads per flush)
//	unsubscribe  {}             -> deregister the connection
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
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/transport"
)

// logger is the daemon-wide structured logger (component=auditord).
var logger = obsv.NewLogger(os.Stderr, "auditord", nil)

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

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

type roundResponse struct {
	gossip.RoundSummary
	PullErrors []string `json:"pull_errors,omitempty"`
}

func main() {
	var (
		name       = flag.String("name", "witness", "this witness's name")
		listen     = flag.String("listen", "127.0.0.1:0", "listen address")
		sources    = flag.String("sources", "", "comma-separated name=addr monitor list")
		peers      = flag.String("peers", "", "comma-separated peer witness addresses")
		dataDir    = flag.String("data", "", "durable storage directory; empty runs in-memory (cosigning key and evidence are lost on exit)")
		interval   = flag.Duration("interval", 0, "automatic pull+gossip period (0 = RPC-driven only)")
		subscribe  = flag.Bool("subscribe", false, "subscribe to head pushes from every source instead of relying on polling alone")
		metrics    = flag.String("metrics", "", "observability HTTP address (/metrics, /healthz, /readyz, /traces, /slo, /debug/flight, pprof); empty disables")
		traceEvery = flag.Int("trace", 64, "sample one in N requests for tracing (0 disables local roots)")

		lagDeadline = flag.Duration("lag-deadline", 30*time.Second, "frontier-lag watchdog deadline: how long the worst source lag may stay above -lag-threshold before the witness degrades (0 disables)")
		lagMax      = flag.Uint64("lag-threshold", 1024, "frontier-lag watchdog threshold (leaves)")
		sloInterval = flag.Duration("slo-interval", obsv.DefaultSLOInterval, "SLO burn-rate sampling interval")

		rpcTimeout    = flag.Duration("rpc-timeout", 10*time.Second, "per-call deadline (and connect timeout) on RPCs to sources and peers; 0 disables")
		debugHooks    = flag.Bool("debug-hooks", false, "enable fault-injection flags — test deployments only")
		faultSchedule = flag.String("fault-schedule", "", "deterministic fault-injection schedule file (requires -debug-hooks)")
		faultTarget   = flag.String("fault-target", "auditord", "target name this process matches in the fault schedule")
	)
	flag.Parse()
	if *sources == "" {
		fatal("need at least one -sources name=addr entry")
	}

	reg := obsv.NewRegistry()
	health := obsv.NewHealth()
	health.Register(reg)
	tracer := obsv.NewTracer(*traceEvery)
	tracer.Register(reg)
	tracer.SetLogger(logger)
	bls.RegisterMetrics(reg)
	bls12381.RegisterMetrics(reg)

	// Diagnosis plane: flight recorder (dumped on panic, SIGQUIT, or a
	// readiness flip), frontier-lag watchdog, SLO burn-rate engine.
	fr := obsv.NewFlightRecorder(obsv.DefaultFlightSize)
	fr.Register(reg)
	diagDir := *dataDir
	if diagDir == "" {
		diagDir = os.TempDir()
	}
	defer fr.DumpOnPanic(diagDir, "auditord")
	dogs := obsv.NewWatchdogSet("auditord", diagDir, fr)
	dogs.SetLogger(logger)

	// Chaos plane (see cmd/monitord): deterministic seeded fault
	// injection on every dial, accept, and I/O this process performs. The
	// injector is handed to each client (mopts.Dial, the push channels)
	// and to the listener below; a nil injector is plain TCP.
	var inj *fault.Injector
	if *faultSchedule != "" {
		if !*debugHooks {
			fatal("-fault-schedule requires -debug-hooks")
		}
		sched, err := fault.LoadSchedule(*faultSchedule)
		if err != nil {
			fatal("loading fault schedule", "err", err)
		}
		inj = fault.Activate(sched, *faultTarget)
		inj.SetFlightRecorder(fr)
		logger.Info("chaos plane armed", "schedule", *faultSchedule,
			"target", *faultTarget, "seed", sched.Seed, "rules", len(sched.Rules))
	}

	// Every source and peer RPC kind this witness issues is idempotent
	// (head/consistency reads and monotone gossip merges), so the managed
	// client's retry policy is safe across the board.
	mopts := transport.ManagedOptions{
		ConnectTimeout: *rpcTimeout,
		CallTimeout:    *rpcTimeout,
		Dial:           inj.Dial,
		OnRetry: func(kind string, attempt int, err error) {
			logger.Warn("rpc retry", "kind", kind, "attempt", attempt, "err", err)
		},
	}

	var w *gossip.Witness
	if *dataDir != "" {
		// Persistent witness: stable cosigning identity, and the evidence
		// base (recorded heads, cosignatures, equivocation proofs)
		// survives restarts — frontiers resume instead of re-TOFUing.
		witness, rec, err := gossip.OpenWitness(*dataDir, gossip.Config{Name: *name})
		if err != nil {
			fatal("opening witness journal", "err", err, "data", *dataDir)
		}
		w = witness
		logger.Info("recovered evidence", "heads", rec.Heads, "cosigs", rec.Cosigs,
			"proofs", rec.Proofs, "pending", rec.Pending)
	} else {
		key, _, err := bls.GenerateKey()
		if err != nil {
			fatal("keygen", "err", err)
		}
		w, err = gossip.NewWitness(gossip.Config{Name: *name, Key: key})
		if err != nil {
			fatal("creating witness", "err", err)
		}
	}
	w.RegisterMetrics(reg)
	w.SetFlightRecorder(fr)
	// A witness whose evidence journal can no longer be written must not
	// look ready: its cosignatures would not survive a restart.
	health.Set("witness-journal", w.Err)
	// A frontier stuck far behind the largest signed size seen means
	// this witness cannot advance (missing consistency proofs, a wedged
	// source, or an equivocating log): degraded, with profiles.
	if *lagDeadline > 0 {
		dogs.AddProbe("gossip-frontier-lag", *lagDeadline, func() (bool, string) {
			if lag := w.FrontierLagMax(); lag > *lagMax {
				return true, fmt.Sprintf("worst source lag %d leaves", lag)
			}
			return false, ""
		})
	}

	// Connect to sources; fetch their tree-head keys (TOFU for the demo).
	var srcs []*sourceConn
	for _, entry := range strings.Split(*sources, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), "=", 2)
		if len(parts) != 2 {
			fatal("bad -sources entry (want name=addr)", "entry", entry)
		}
		sc := &sourceConn{name: parts[0], addr: parts[1]}
		sc.conn = transport.DialManaged(sc.addr, mopts)
		var info monitorInfo
		if err := sc.conn.Call("info", struct{}{}, &info); err != nil {
			fatal("fetching source identity", "source", sc.name, "err", err)
		}
		pk := new(bls.PublicKey)
		if err := pk.SetBytes(info.BLSKey); err != nil {
			fatal("bad source BLS key", "source", sc.name, "err", err)
		}
		if err := w.AddSource(gossip.Source{Name: sc.name, Key: pk}); err != nil {
			fatal("adding source", "source", sc.name, "err", err)
		}
		logger.Info("watching source", "source", sc.name, "addr", sc.addr, "size", info.Size)
		srcs = append(srcs, sc)
	}

	// Connect to peers; accept their cosigning keys (TOFU for the demo).
	// Peers ride managed clients too: a peer witness that restarts or
	// drops mid-round is retried and, if persistently dead, its circuit
	// opens so rounds skip it cheaply until it heals.
	var peerConns []*gossip.Peer
	if *peers != "" {
		for _, addr := range strings.Split(*peers, ",") {
			p := gossip.DialPeer(strings.TrimSpace(addr), mopts)
			info, err := p.Info()
			if err != nil {
				fatal("fetching peer identity", "peer", addr, "err", err)
			}
			pk := new(bls.PublicKey)
			if err := pk.SetBytes(info.PublicKey); err != nil {
				fatal("bad peer key", "peer", addr, "err", err)
			}
			if err := w.AddWitness(pk); err != nil {
				fatal("adding peer witness", "peer", addr, "err", err)
			}
			peerConns = append(peerConns, p)
		}
	}

	// pull fetches every source, tolerating per-source failures: one dead
	// monitor must not stop this witness from gossiping the frontiers
	// and proofs it holds for the healthy ones.
	pull := func() []string {
		var errs []string
		for _, sc := range srcs {
			if err := pullSource(w, sc); err != nil {
				logger.Warn("pull failed", "source", sc.name, "err", err)
				errs = append(errs, err.Error())
			}
		}
		return errs
	}

	// hub pushes this witness's cosigned frontier to its own subscribers
	// (downstream clients and witnesses) whenever the frontier advances.
	hub := serve.NewHub(*name)
	defer hub.Close()
	publishFrontier := func() { hub.Publish(w.FrontierHeads()) }

	srv := transport.NewServer()
	w.Register(srv)
	srv.Handle("pull", func(json.RawMessage) (any, error) {
		errs := pull()
		publishFrontier()
		return pullResponse{Heads: w.FrontierHeads(), Errors: errs}, nil
	})
	srv.Handle("round", func(json.RawMessage) (any, error) {
		errs := pull()
		sum, err := w.Round(peerConns)
		if err != nil {
			return nil, err
		}
		publishFrontier()
		return roundResponse{RoundSummary: *sum, PullErrors: errs}, nil
	})
	srv.Handle("proofs", func(json.RawMessage) (any, error) {
		return w.Proofs(), nil
	})
	serve.RegisterHub(srv, hub, w.FrontierHeads)

	// With -subscribe, open a push channel from every source: pushed
	// heads are verified+cosigned the moment they arrive, and the
	// refreshed frontier is pushed onward to this witness's subscribers.
	var autos []*serve.AutoSubscriber
	if *subscribe {
		for _, sc := range srcs {
			auto, err := subscribeSource(w, sc, *rpcTimeout, inj, publishFrontier)
			if err != nil {
				fatal("subscribing to source", "source", sc.name, "err", err)
			}
			autos = append(autos, auto)
		}
	}
	srv.Instrument(reg, tracer)
	srv.SetFlightRecorder(fr)

	slo := obsv.NewSLOEngine(reg, obsv.DefaultWitnessSLOs(), *sloInterval)
	slo.Register(reg)
	slo.Start()
	dogs.Register(reg)
	dogs.BindHealth(health)
	dogs.Start(100 * time.Millisecond)
	stopDumps := fr.ArmDumps(diagDir, "auditord", health, logger)

	var ms *obsv.MetricsServer
	if *metrics != "" {
		var err error
		ms, err = obsv.Endpoint{
			Daemon:   "auditord",
			Registry: reg,
			Health:   health,
			Tracer:   tracer,
			Flight:   fr,
			SLO:      slo,
		}.ListenAndServe(*metrics)
		if err != nil {
			fatal("metrics endpoint", "err", err)
		}
		logger.Info("observability endpoint up", "addr", ms.Addr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}
	srv.Serve(inj.Listener(ln))
	kb := w.PublicKey().Bytes()
	logger.Info("serving", "addr", ln.Addr().String(), "sources", len(srcs),
		"peers", len(peerConns), "subscribed", *subscribe,
		"cosigning_key", fmt.Sprintf("%x", kb[:]))

	if *interval > 0 {
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				pull() // per-source failures already logged; keep gossiping
				if sum, err := w.Round(peerConns); err != nil {
					logger.Warn("gossip round failed", "err", err)
				} else if sum.NewProofs > 0 {
					logger.Warn("new equivocation proofs", "count", sum.NewProofs)
				}
				publishFrontier()
			}
		}()
	}

	// Clean shutdown: stop serving, then flush the evidence journal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	logger.Info("shutting down", "signal", got.String())
	srv.Close()
	for _, a := range autos {
		a.Close()
	}
	stopDumps()
	dogs.Close()
	slo.Close()
	if ms != nil {
		ms.Close()
	}
	if err := w.Close(); err != nil {
		fatal("flushing journal", "err", err)
	}
	if *dataDir != "" {
		logger.Info("journal flushed", "data", *dataDir)
	}
}

// subscribeSource opens a self-healing push channel to one source (the
// polling connection stays synchronous request/response): an
// AutoSubscriber redials with jittered backoff whenever the connection
// dies, resumes from the per-source floors of everything already
// delivered, and re-subscribes — so across any number of reconnects the
// worker sees one strictly-increasing head sequence, with no duplicate
// deliveries and no regressions. Pushed heads are processed off the
// read loop: a mailbox keeps only the latest pushed head, a worker
// fetches the consistency proof bridging the witness's frontier (over
// the same subscribed connection, pinned to the pushed size so a
// growing log cannot outrun it), ingests, and publishes the refreshed
// cosigned frontier onward. While the channel is down the polling path
// keeps the witness correct; the subscription catches back up on its
// own when the source heals.
func subscribeSource(w *gossip.Witness, sc *sourceConn, dialTimeout time.Duration, inj *fault.Injector, publish func()) (*serve.AutoSubscriber, error) {
	if dialTimeout <= 0 {
		dialTimeout = transport.DefaultDialTimeout
	}
	var mu sync.Mutex
	var latest *gossip.GossipHead
	kick := make(chan struct{}, 1)
	auto, err := serve.NewAutoSubscriber(serve.AutoOptions{
		From: w.Name(),
		// Dial through the injector so chaos schedules partition the push
		// channel too (a nil injector dials plainly).
		Dial: func() (net.Conn, error) { return inj.Dial(sc.addr, dialTimeout) },
		OnHeads: func(_ string, heads []gossip.GossipHead) {
			// Read-loop context: park the newest head and return. Calling
			// auto.Call here would deadlock (the response needs this loop).
			mu.Lock()
			latest = &heads[len(heads)-1]
			mu.Unlock()
			select {
			case kick <- struct{}{}:
			default:
			}
		},
		OnState: func(event string, err error) {
			switch event {
			case "connected":
				logger.Info("push channel up", "source", sc.name)
			case "disconnected":
				logger.Warn("push channel lost, reconnecting (polling continues)", "source", sc.name, "err", err)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	go func() {
		for range kick {
			mu.Lock()
			gh := latest
			latest = nil
			mu.Unlock()
			if gh == nil {
				continue
			}
			var cons *aolog.ShardConsistencyProof
			if front, ok := w.Frontier(sc.name); ok && gh.Head.Size > front.Size {
				cons = new(aolog.ShardConsistencyProof)
				req := struct {
					OldSize int `json:"old_size"`
					NewSize int `json:"new_size"`
				}{OldSize: int(front.Size), NewSize: int(gh.Head.Size)}
				if err := auto.Call("consistency", req, cons); err != nil {
					logger.Warn("consistency for pushed head failed", "source", sc.name, "size", gh.Head.Size, "err", err)
					continue
				}
			}
			res := w.Ingest(sc.name, gh.Head, cons)
			if res.Err != nil {
				logger.Warn("ingesting pushed head failed", "source", sc.name, "size", gh.Head.Size, "err", res.Err)
				continue
			}
			if res.Proof != nil {
				logger.Warn("source convicted of equivocation", "source", sc.name, "size", gh.Head.Size)
			}
			publish()
		}
	}()
	return auto, nil
}

// pullSource fetches the source's current BLS head, plus a consistency
// proof from the witness's cosigned frontier when one exists, and ingests
// both. Head and proof are fetched in separate RPCs, so a live log can
// grow between them; retry until the proof ends at the fetched head.
func pullSource(w *gossip.Witness, sc *sourceConn) error {
	for attempt := 0; attempt < 3; attempt++ {
		var head aolog.BLSSignedHead
		if err := sc.conn.Call("headbls", struct{}{}, &head); err != nil {
			return fmt.Errorf("auditord: head from %s: %w", sc.name, err)
		}
		var cons *aolog.ShardConsistencyProof
		if front, ok := w.Frontier(sc.name); ok && head.Size > front.Size {
			cons = new(aolog.ShardConsistencyProof)
			req := struct {
				OldSize int `json:"old_size"`
			}{OldSize: int(front.Size)}
			if err := sc.conn.Call("consistency", req, cons); err != nil {
				return fmt.Errorf("auditord: consistency from %s: %w", sc.name, err)
			}
			if cons.NewSize != int(head.Size) {
				continue // the log grew between the two RPCs
			}
		}
		res := w.Ingest(sc.name, head, cons)
		if res.Err != nil {
			return fmt.Errorf("auditord: ingesting %s head: %w", sc.name, res.Err)
		}
		if res.Proof != nil {
			logger.Warn("source convicted of equivocation", "source", sc.name, "size", head.Size)
		}
		return nil
	}
	return fmt.Errorf("auditord: source %s log kept moving between head and proof fetches", sc.name)
}
