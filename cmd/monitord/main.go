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
//	alerts      {}                -> all accumulated misbehavior proofs
//	poll        {}                -> monitor fetches statuses itself from
//	                                 every domain and ingests them
//	info        {}                -> monitor identity: name, BLS tree-head
//	                                 key, shard count, current log size
//	                                 (signs nothing)
//	gossipreport {proof}          -> slashing path: verify a portable
//	                                 gossip.EquivocationProof offline and
//	                                 record it (alert + public log entry);
//	                                 only proofs accusing this monitor's
//	                                 key or a -slashable pinned key are
//	                                 accepted, replays are idempotent
//
// The serving tier (internal/serve) is the read path: the monitor has
// one tree-head key (BLS), the tier's head pump signs one head per log
// size, checks it against its predecessor and publishes it, and proofs
// are answered from a cache with single-flight coalescing:
//
//	headbls     {}                -> the published BLS-signed tree head
//	                                 (batch-verifiable by auditors via
//	                                 bls.VerifyBatch)
//	consistency {old_size, new_size?}
//	                              -> sharded consistency proof from old_size
//	                                 to new_size (default: the published
//	                                 head; what witnesses use to advance
//	                                 their cosigned frontier)
//	proof       {index, size?}    -> cached inclusion proof plus the
//	                                 current signed head; under overload
//	                                 degrades to the last stale-but-
//	                                 verified head (overloaded: true)
//	subscribe   {from?}           -> registers this connection for pushed
//	                                 heads: each new BLS-signed head
//	                                 arrives as one server-initiated
//	                                 "_batch" frame of push_heads calls
//	unsubscribe {}                -> deregisters the connection
//
// The server also accepts transport-level "_batch" frames bundling any of
// the above, so gossiping clients pay one round trip per flush. The public
// log stripes across -shards sub-logs; tree heads commit to the sharded
// super-root and inclusion/consistency proofs carry the shard geometry.
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/daemon"
	"repro/internal/deployfile"
	"repro/internal/gossip"
	"repro/internal/monitor"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/transport"
)

var (
	h      = daemon.New("monitord", flag.CommandLine, true)
	logger = h.Log

	paramsPath = flag.String("params", "deployment.json", "deployment parameters file")
	listen     = flag.String("listen", "127.0.0.1:0", "listen address")
	shards     = flag.Int("shards", monitor.DefaultShards, "stripe count of the public Merkle log")
	name       = flag.String("name", "monitor", "this monitor's name in gossip deployments")
	slashable  = flag.String("slashable", "", "comma-separated hex BLS keys of peer monitors whose equivocation proofs this monitor records")

	fsyncDeadline = flag.Duration("fsync-deadline", 2*time.Second, "WAL-fsync stall watchdog deadline (0 disables)")
	rpcTimeout    = flag.Duration("rpc-timeout", 10*time.Second, "per-call deadline on outbound RPCs this monitor issues (poll path); 0 disables")
)

func main() {
	flag.Parse()
	h.Start()
	defer h.Flight.DumpOnPanic(h.DiagDir, h.Name)
	bls.RegisterMetrics(h.Reg)
	bls12381.RegisterMetrics(h.Reg)
	var fsyncDog *obsv.Watchdog
	if *fsyncDeadline > 0 {
		fsyncDog = h.Dogs.Add("wal-fsync", *fsyncDeadline)
	}

	file, err := deployfile.Read(*paramsPath)
	if err != nil {
		h.Fatal("reading deployment parameters", "err", err)
	}
	params, err := file.Params()
	if err != nil {
		h.Fatal("parsing deployment parameters", "err", err)
	}
	var mon *monitor.Monitor
	if h.DataDir != "" {
		// Persistent monitor: stable tree-head identity, crash-safe log.
		openOpts := &monitor.OpenOptions{Shards: *shards}
		if h.Inj != nil {
			openOpts.DiskFault = h.Inj.DiskFault
		}
		mon, err = monitor.Open(h.DataDir, params, openOpts)
		if err != nil {
			h.Fatal("opening monitor store", "err", err, "data", h.DataDir)
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
		key, _, err := bls.GenerateKey()
		if err != nil {
			h.Fatal("tree-head keygen", "err", err)
		}
		mon, err = monitor.NewSharded(params, key, *shards)
		if err != nil {
			h.Fatal("creating monitor", "err", err)
		}
	}
	headKey := mon.BLSPublicKey().Bytes() // the monitor's one identity, fixed for the process
	mon.RegisterMetrics(h.Reg)
	mon.SetDiagnostics(h.Flight, fsyncDog)
	// The sticky persistence error flips readiness: a monitor that can
	// no longer write its log durably must not look healthy.
	h.Health.Set("monitor-persist", mon.Err)
	// Slashing reports may accuse this monitor itself plus any pinned
	// peer monitor keys; proofs for other keys are self-signed spam.
	if err := mon.RegisterLogSource(mon.BLSPublicKey()); err != nil {
		h.Fatal("registering own log source", "err", err)
	}
	if *slashable != "" {
		for _, hx := range strings.Split(*slashable, ",") {
			kb, err := hex.DecodeString(strings.TrimSpace(hx))
			if err != nil {
				h.Fatal("bad -slashable key", "key", hx, "err", err)
			}
			pk := new(bls.PublicKey)
			if err := pk.SetBytes(kb); err != nil {
				h.Fatal("bad -slashable key", "key", hx, "err", err)
			}
			if err := mon.RegisterLogSource(pk); err != nil {
				h.Fatal("registering slashable key", "err", err)
			}
		}
	}
	// The poll path dials through the injector like every other connection.
	auditClient := audit.NewClient(params)
	auditClient.SetCallTimeout(*rpcTimeout)
	auditClient.SetDial(h.Inj.Dial)
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
	srv.Handle("alerts", func(json.RawMessage) (any, error) {
		return mon.Alerts(), nil
	})
	srv.Handle("info", func(json.RawMessage) (any, error) {
		return infoResponse{
			Name:   *name,
			BLSKey: headKey[:],
			Shards: mon.NumShards(),
			Size:   uint64(mon.Len()),
		}, nil
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

	// The serving tier is the read path: it registers headbls, consistency,
	// proof, subscribe and unsubscribe. Appends kick its head pump, which
	// signs the new head once, checks it against the previous one and
	// pushes it to every subscriber.
	tier, err := serve.Attach(mon, serve.Options{Source: *name, SourcePK: headKey[:], Metrics: h.Reg})
	if err != nil {
		h.Fatal("attaching serving tier", "err", err)
	}
	mon.SetAppendHook(tier.Kick)
	tier.Register(srv)
	tier.SetFlightRecorder(h.Flight)
	// A poisoned (fail-closed) tier must flip /readyz, not just refuse
	// RPCs.
	h.Health.Set("serve", tier.Unhealthy)
	// A push backlog pinned at the cap means subscribers are not
	// draining; degraded, with profiles, but not unready.
	hub := tier.Hub()
	h.Dogs.AddProbe("serve-push-drain", 5*time.Second, func() (bool, string) {
		if p := hub.Pending(); p >= 1024 {
			return true, fmt.Sprintf("push backlog %d heads", p)
		}
		return false, ""
	})
	if h.DebugHooks {
		// Test-only failure injection: the e2e smoke test poisons the
		// tier over RPC and asserts /readyz flips while serve_poisoned=1.
		srv.Handle("_poison", func(json.RawMessage) (any, error) {
			tier.Poison(errors.New("debug poison injected"))
			return map[string]bool{"poisoned": true}, nil
		})
	}
	// The head pump reads the monitor: it stops before the store closes.
	h.Go(func(stop <-chan struct{}) {
		<-stop
		tier.Close()
	})

	// SLO objectives from the deployment file when declared, the monitor
	// defaults otherwise.
	if err := file.ValidateSLOs(); err != nil {
		h.Fatal("deployment SLOs", "err", err)
	}
	objs := file.SLOs
	if len(objs) == 0 {
		objs = obsv.DefaultMonitorSLOs()
	}
	addr := h.Serve(srv, *listen, objs)
	logger.Info("serving", "addr", addr.String(), "domains", len(params.Domains),
		"shards", *shards, "size", mon.Len())
	logger.Info("tree-head identity", "bls", fmt.Sprintf("%x", headKey))

	// The store flushes last: final snapshot, WAL checkpoint, segment close.
	h.Run(mon.Close)
	if h.DataDir != "" {
		logger.Info("store flushed", "data", h.DataDir, "size", mon.Len())
	}
}

type submitResponse struct {
	LogIndex int                `json:"log_index"`
	Alert    *audit.Misbehavior `json:"alert,omitempty"`
	Error    string             `json:"error,omitempty"`
}

type infoResponse struct {
	Name   string `json:"name"`
	BLSKey []byte `json:"bls_key"`
	Shards int    `json:"shards"`
	Size   uint64 `json:"size"`
}
