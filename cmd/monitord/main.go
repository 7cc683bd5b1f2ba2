// Command monitord runs a certificate-transparency-style public monitor
// for a deployment: clients gossip the attested statuses they observe;
// the monitor re-verifies each one, appends it to a public Merkle log,
// and raises publicly verifiable misbehavior proofs when any domain's
// observations contradict append-only execution (split views,
// equivocation, rollbacks).
//
//	monitord -params deployment.json -listen 127.0.0.1:7070
//
// Protocol (framed JSON, see internal/transport):
//
//	submit      {envelope}        -> {log_index, alert?}
//	submitbatch {envelopes: [..]} -> [{log_index, alert?, error?}, ...]
//	head        {}                -> ed25519-signed tree head
//	headbls     {}                -> BLS-signed tree head (batch-verifiable
//	                                 by auditors via bls.VerifyBatch)
//	alerts      {}                -> all accumulated misbehavior proofs
//	poll        {}                -> monitor fetches statuses itself from
//	                                 every domain and ingests them
//	info        {}                -> monitor identity: name, tree-head keys,
//	                                 shard count, current log size
//	consistency {old_size}        -> sharded consistency proof from old_size
//	                                 to the current log (what witnesses use
//	                                 to advance their cosigned frontier)
//	gossipreport {proof}          -> slashing path: verify a portable
//	                                 gossip.EquivocationProof offline and
//	                                 record it (alert + public log entry);
//	                                 only proofs accusing this monitor's
//	                                 key or a -slashable pinned key are
//	                                 accepted, replays are idempotent
//
// With -subscribe (the default) the serving tier (internal/serve) fronts
// the read path: head/headbls/consistency are answered from a proof
// cache with single-flight coalescing, heads are signed once per log
// size instead of once per request, and three kinds are added:
//
//	proof       {index, size?}    -> cached inclusion proof plus the
//	                                 current signed head; under overload
//	                                 degrades to the last stale-but-
//	                                 verified head (overloaded: true)
//	subscribe   {from?}           -> registers this connection for pushed
//	                                 heads: each new BLS-signed head
//	                                 arrives as one server-initiated
//	                                 "_batch" frame of push_heads calls
//	unsubscribe {}                -> deregisters the connection
//	servestats  {}                -> cache/admission/push counters
//
// The server also accepts transport-level "_batch" frames bundling any of
// the above, so gossiping clients pay one round trip per flush. The public
// log stripes across -shards sub-logs; tree heads commit to the sharded
// super-root and inclusion/consistency proofs carry the shard geometry.
package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/deployfile"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/monitor"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/transport"
)

func main() {
	var (
		paramsPath = flag.String("params", "deployment.json", "deployment parameters file")
		listen     = flag.String("listen", "127.0.0.1:0", "listen address")
		shards     = flag.Int("shards", monitor.DefaultShards, "stripe count of the public Merkle log")
		name       = flag.String("name", "monitor", "this monitor's name in gossip deployments")
		dataDir    = flag.String("data", "", "durable storage directory; empty runs in-memory (log and keys are lost on exit)")
		slashable  = flag.String("slashable", "", "comma-separated hex BLS keys of peer monitors whose equivocation proofs this monitor records")
		subscribe  = flag.Bool("subscribe", true, "serve reads through the caching tier and push new heads to subscribed connections")
		metrics    = flag.String("metrics", "", "observability HTTP address (/metrics, /healthz, /readyz, /traces, /slo, /debug/flight, pprof); empty disables")
		traceEvery = flag.Int("trace", 64, "sample one in N requests for tracing (0 disables local roots)")
		debugHooks = flag.Bool("debug-hooks", false, "register debug RPCs (_poison) and fault-injection flags — test deployments only")

		fsyncDeadline   = flag.Duration("fsync-deadline", 2*time.Second, "WAL-fsync stall watchdog deadline (0 disables)")
		sloInterval     = flag.Duration("slo-interval", obsv.DefaultSLOInterval, "SLO burn-rate sampling interval")
		debugFsyncStall = flag.Duration("debug-fsync-stall", 0, "inject a sleep before every WAL fsync (requires -debug-hooks)")
		rpcTimeout      = flag.Duration("rpc-timeout", 10*time.Second, "per-call deadline on outbound RPCs this monitor issues (poll path); 0 disables")
		faultSchedule   = flag.String("fault-schedule", "", "deterministic fault-injection schedule file (requires -debug-hooks)")
		faultTarget     = flag.String("fault-target", "monitord", "target name this process matches in the fault schedule")
	)
	flag.Parse()

	logger := obsv.NewLogger(os.Stderr, "monitord", nil)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	reg := obsv.NewRegistry()
	health := obsv.NewHealth()
	health.Register(reg)
	tracer := obsv.NewTracer(*traceEvery)
	tracer.Register(reg)
	tracer.SetLogger(logger)
	bls.RegisterMetrics(reg)
	bls12381.RegisterMetrics(reg)

	// Diagnosis plane: the flight recorder keeps the last operational
	// transitions in memory and dumps them on panic, SIGQUIT, or a
	// readiness flip; watchdogs turn silent stalls into degraded health
	// plus profiles; the SLO engine burns the registry's own series.
	fr := obsv.NewFlightRecorder(obsv.DefaultFlightSize)
	fr.Register(reg)
	diagDir := *dataDir
	if diagDir == "" {
		diagDir = os.TempDir()
	}
	defer fr.DumpOnPanic(diagDir, "monitord")
	dogs := obsv.NewWatchdogSet("monitord", diagDir, fr)
	dogs.SetLogger(logger)
	var fsyncDog *obsv.Watchdog
	if *fsyncDeadline > 0 {
		fsyncDog = dogs.Add("wal-fsync", *fsyncDeadline)
	}

	file, err := deployfile.Read(*paramsPath)
	if err != nil {
		fatal("reading deployment parameters", "err", err)
	}
	params, err := file.Params()
	if err != nil {
		fatal("parsing deployment parameters", "err", err)
	}
	var stall time.Duration
	if *debugHooks {
		stall = *debugFsyncStall
	} else if *debugFsyncStall > 0 {
		fatal("-debug-fsync-stall requires -debug-hooks")
	}
	// Chaos plane: a seeded schedule makes faults deterministic, so a CI
	// failure replays locally from the schedule file alone. The injector
	// wraps the RPC listener (every accepted connection and its I/O) and
	// the WAL fsync path; each injection lands on /debug/flight tagged
	// "injected". A nil injector passes everything through.
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
	var mon *monitor.Monitor
	if *dataDir != "" {
		// Persistent monitor: stable tree-head identity, crash-safe log.
		openOpts := &monitor.OpenOptions{Shards: *shards, FsyncStall: stall}
		if inj != nil {
			openOpts.DiskFault = inj.DiskFault
		}
		mon, err = monitor.Open(*dataDir, params, openOpts)
		if err != nil {
			fatal("opening monitor store", "err", err, "data", *dataDir)
		}
		if info, ok := mon.RecoveryInfo(); ok {
			head := "no signed head on disk"
			if info.HasHead {
				head = fmt.Sprintf("super-root verified against last signed head (size %d)", info.HeadSize)
			}
			logger.Info("recovered log", "size", info.Leaves, "from_segments", info.FromSegments,
				"from_wal", info.FromWAL, "snapshot_size", info.SnapshotSize,
				"elapsed", info.Elapsed.Round(time.Millisecond), "head", head)
		}
	} else {
		_, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			fatal("keygen", "err", err)
		}
		mon, err = monitor.NewSharded(params, priv, *shards)
		if err != nil {
			fatal("creating monitor", "err", err)
		}
		blsKey, _, err := bls.GenerateKey()
		if err != nil {
			fatal("BLS keygen", "err", err)
		}
		mon.EnableBLSHeads(blsKey)
	}
	mon.RegisterMetrics(reg)
	mon.SetDiagnostics(fr, fsyncDog)
	// The sticky persistence error flips readiness: a monitor that can
	// no longer write its log durably must not look healthy.
	health.Set("monitor-persist", mon.Err)
	// Slashing reports may accuse this monitor itself plus any pinned
	// peer monitor keys; proofs for other keys are self-signed spam.
	if err := mon.RegisterLogSource(mon.BLSPublicKey()); err != nil {
		fatal("registering own log source", "err", err)
	}
	if *slashable != "" {
		for _, h := range strings.Split(*slashable, ",") {
			kb, err := hex.DecodeString(strings.TrimSpace(h))
			if err != nil {
				fatal("bad -slashable key", "key", h, "err", err)
			}
			pk := new(bls.PublicKey)
			if err := pk.SetBytes(kb); err != nil {
				fatal("bad -slashable key", "key", h, "err", err)
			}
			if err := mon.RegisterLogSource(pk); err != nil {
				fatal("registering slashable key", "err", err)
			}
		}
	}
	auditClient := audit.NewClient(params)
	auditClient.SetCallTimeout(*rpcTimeout)
	defer auditClient.Close()

	srv := transport.NewServer()
	srv.Handle("submit", func(body json.RawMessage) (any, error) {
		var env audit.AttestedStatusEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return nil, err
		}
		idx, proof, err := mon.Submit(&env)
		if err != nil {
			return nil, err
		}
		return submitResponse{LogIndex: idx, Alert: proof}, nil
	})
	srv.HandleNoBatch("submitbatch", func(body json.RawMessage) (any, error) {
		var req struct {
			Envelopes []*audit.AttestedStatusEnvelope `json:"envelopes"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		// One frame must not queue unbounded envelope verifications.
		if len(req.Envelopes) > transport.MaxBatchCalls {
			return nil, fmt.Errorf("batch of %d exceeds limit %d", len(req.Envelopes), transport.MaxBatchCalls)
		}
		outcomes := mon.SubmitBatch(req.Envelopes)
		out := make([]submitResponse, len(outcomes))
		for i, o := range outcomes {
			out[i] = submitResponse{LogIndex: o.LogIndex, Alert: o.Alert}
			if o.Err != nil {
				out[i].Error = o.Err.Error()
			}
		}
		return out, nil
	})
	srv.Handle("head", func(json.RawMessage) (any, error) {
		return mon.TreeHead(), nil
	})
	srv.Handle("headbls", func(json.RawMessage) (any, error) {
		return mon.TreeHeadBLS()
	})
	srv.Handle("alerts", func(json.RawMessage) (any, error) {
		return mon.Alerts(), nil
	})
	srv.Handle("info", func(json.RawMessage) (any, error) {
		blsPub := mon.BLSPublicKey().Bytes()
		head := mon.TreeHead()
		return infoResponse{
			Name:      *name,
			PublicKey: mon.PublicKey(),
			BLSKey:    blsPub[:],
			Shards:    mon.NumShards(),
			Size:      head.Size,
		}, nil
	})
	srv.Handle("consistency", func(body json.RawMessage) (any, error) {
		var req struct {
			OldSize int `json:"old_size"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return mon.ProveConsistency(req.OldSize)
	})
	srv.Handle("gossipreport", func(body json.RawMessage) (any, error) {
		var proof gossip.EquivocationProof
		if err := json.Unmarshal(body, &proof); err != nil {
			return nil, err
		}
		idx, err := mon.RecordLogEquivocation(&proof)
		if err != nil {
			return nil, err
		}
		return submitResponse{LogIndex: idx}, nil
	})
	srv.Handle("poll", func(json.RawMessage) (any, error) {
		var out []submitResponse
		for _, d := range params.Domains {
			env, err := auditClient.FetchStatus(d.Name)
			if err != nil {
				return nil, fmt.Errorf("fetching %s: %w", d.Name, err)
			}
			idx, proof, err := mon.Submit(env)
			if err != nil {
				return nil, fmt.Errorf("ingesting %s: %w", d.Name, err)
			}
			out = append(out, submitResponse{LogIndex: idx, Alert: proof})
		}
		return out, nil
	})

	// The serving tier rebinds head/headbls/consistency to the cached
	// paths and adds proof/subscribe/unsubscribe/servestats. Appends kick
	// the tier's publisher, which signs the new head once and pushes it
	// to every subscriber.
	var tier *serve.Tier
	if *subscribe {
		pkb := mon.BLSPublicKey().Bytes()
		tier, err = serve.Attach(mon, serve.Options{Source: *name, SourcePK: pkb[:], Metrics: reg})
		if err != nil {
			fatal("attaching serving tier", "err", err)
		}
		mon.SetAppendHook(tier.Kick)
		tier.Register(srv)
		tier.SetFlightRecorder(fr)
		// A poisoned (fail-closed) tier must flip /readyz, not just
		// refuse RPCs.
		health.Set("serve", tier.Unhealthy)
		// A push backlog pinned at the cap means subscribers are not
		// draining; degraded, with profiles, but not unready.
		hub := tier.Hub()
		dogs.AddProbe("serve-push-drain", 5*time.Second, func() (bool, string) {
			if p := hub.Pending(); p >= 1024 {
				return true, fmt.Sprintf("push backlog %d heads", p)
			}
			return false, ""
		})
	}
	if *debugHooks && tier != nil {
		// Test-only failure injection: the e2e smoke test poisons the
		// tier over RPC and asserts /readyz flips while serve_poisoned=1.
		srv.Handle("_poison", func(json.RawMessage) (any, error) {
			tier.Poison(errors.New("debug poison injected"))
			return map[string]bool{"poisoned": true}, nil
		})
	}
	srv.Instrument(reg, tracer)
	srv.SetFlightRecorder(fr)

	// SLO engine: objectives from the deployment file when declared,
	// the monitor defaults otherwise.
	if err := file.ValidateSLOs(); err != nil {
		fatal("deployment SLOs", "err", err)
	}
	objs := file.SLOs
	if len(objs) == 0 {
		objs = obsv.DefaultMonitorSLOs()
	}
	slo := obsv.NewSLOEngine(reg, objs, *sloInterval)
	slo.Register(reg)
	slo.Start()

	dogs.Register(reg)
	dogs.BindHealth(health)
	dogs.Start(100 * time.Millisecond)
	stopDumps := fr.ArmDumps(diagDir, "monitord", health, logger)

	var ms *obsv.MetricsServer
	if *metrics != "" {
		ms, err = obsv.Endpoint{
			Daemon:   "monitord",
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
	logger.Info("serving", "addr", ln.Addr().String(), "domains", len(params.Domains),
		"shards", *shards, "serve_tier", tier != nil, "size", mon.Len())
	logger.Info("tree-head identity", "ed25519", fmt.Sprintf("%x", mon.PublicKey()),
		"bls", fmt.Sprintf("%x", blsKeyBytes(mon)))

	// Clean shutdown: stop serving, then flush the store (final
	// snapshot, WAL checkpoint, segment close) before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	logger.Info("shutting down", "signal", got.String())
	srv.Close()
	if tier != nil {
		tier.Close()
	}
	stopDumps()
	dogs.Close()
	slo.Close()
	if ms != nil {
		ms.Close()
	}
	if err := mon.Close(); err != nil {
		fatal("flushing store", "err", err)
	}
	if *dataDir != "" {
		logger.Info("store flushed", "data", *dataDir, "size", mon.Len())
	}
}

func blsKeyBytes(mon *monitor.Monitor) []byte {
	b := mon.BLSPublicKey().Bytes()
	return b[:]
}

type submitResponse struct {
	LogIndex int                `json:"log_index"`
	Alert    *audit.Misbehavior `json:"alert,omitempty"`
	Error    string             `json:"error,omitempty"`
}

type infoResponse struct {
	Name      string `json:"name"`
	PublicKey []byte `json:"public_key"`
	BLSKey    []byte `json:"bls_key"`
	Shards    int    `json:"shards"`
	Size      uint64 `json:"size"`
}
