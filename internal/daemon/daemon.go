// Package daemon is the harness monitord, auditord and trustdomaind run
// inside: the flags they share, the telemetry, diagnosis and chaos
// planes built from them, and the order a daemon comes up and goes down
// in. A main built on it states only what is particular to it:
//
//	h := daemon.New(name, flag.CommandLine, traced)
//	flag.Parse()
//	h.Start()                 // planes built, watchdogs ticking
//	...                       // own state, handlers, probes, h.Go(loop), h.Every(d, tick)
//	h.Serve(srv, addr, slos)  // or h.Observe(slos) without an RPC server
//	h.Run(flush)              // wait for a signal, then Shutdown(flush)
//
// OWNS: the flags -data, -metrics, -trace, -slo-interval, -debug-hooks,
// -fault-schedule and -fault-target, their defaults and the one rule
// that -fault-schedule requires -debug-hooks; construction of the logger,
// registry, health, tracer, flight recorder, watchdog set and fault
// injector; the SLO engine and the metrics endpoint; instrumenting and
// listening for the daemon's RPC server; the one ticker loop (Every),
// which drives the watchdogs, the SLO engine, the readiness-flip dump
// and the daemons' own periodic work; the signal wait, with the SIGQUIT
// flight dump, and the teardown order.
//
// MUST NOT DO: know what any daemon serves, stores or signs; register
// an RPC kind, a readiness probe or a watchdog of its own; choose SLO
// objectives; hold process-wide state (two Harnesses in one process
// share nothing).
//
// MUST NOT import: any repro/internal package except obsv, fault and
// transport.
package daemon

import (
	"errors"
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/transport"
)

const (
	// watchdogTick is how often the watchdog set evaluates its dogs.
	watchdogTick = 100 * time.Millisecond
	// readinessPoll is how often readiness is checked for a flip to
	// not-ready, which writes a flight dump.
	readinessPoll = 250 * time.Millisecond
)

// Harness is one daemon's shared wiring. New fills Name and Log, flag
// parsing DataDir and DebugHooks, Start the rest; all are read-only then.
type Harness struct {
	Name       string
	Log        *slog.Logger
	DataDir    string // -data; empty runs in-memory
	DebugHooks bool   // -debug-hooks
	DiagDir    string // where dumps and profiles land: DataDir, else os.TempDir()

	Reg    *obsv.Registry
	Health *obsv.Health
	Tracer *obsv.Tracer // nil on a daemon without -trace
	Flight *obsv.FlightRecorder
	Dogs   *obsv.WatchdogSet
	Inj    *fault.Injector // nil without -fault-schedule: plain TCP, no disk faults

	metricsAddr   *string
	traceEvery    *int
	sloInterval   *time.Duration
	faultSchedule *string
	faultTarget   *string

	srv     *transport.Server
	slo     *obsv.SLOEngine
	metrics *obsv.MetricsServer
	stop    chan struct{}
	loops   sync.WaitGroup
}

// New registers the shared flags on fs and builds the daemon's logger.
// traced adds -trace: set it for a daemon whose RPC server the harness
// serves (Serve), leave it off for one that only calls Observe.
func New(name string, fs *flag.FlagSet, traced bool) *Harness {
	h := &Harness{
		Name: name,
		Log:  obsv.NewLogger(os.Stderr, name, nil),
		stop: make(chan struct{}),
	}
	fs.StringVar(&h.DataDir, "data", "", "durable state directory; empty runs in-memory (state and keys are lost on exit)")
	h.metricsAddr = fs.String("metrics", "", "observability HTTP address (/metrics, /healthz, /readyz, /traces, /slo, /debug/flight, pprof); empty disables")
	if traced {
		h.traceEvery = fs.Int("trace", 64, "sample one in N requests for tracing (0 disables local roots)")
	}
	h.sloInterval = fs.Duration("slo-interval", obsv.DefaultSLOInterval, "SLO burn-rate sampling interval")
	fs.BoolVar(&h.DebugHooks, "debug-hooks", false, "enable debug RPCs and fault-injection flags — test deployments only")
	h.faultSchedule = fs.String("fault-schedule", "", "deterministic fault-injection schedule file (requires -debug-hooks)")
	h.faultTarget = fs.String("fault-target", name, "target name this process matches in the fault schedule")
	return h
}

// Fatal logs msg and exits 1.
func (h *Harness) Fatal(msg string, args ...any) {
	h.Log.Error(msg, args...)
	os.Exit(1)
}

// checkDebugOnly is the one debug-only rule: -fault-schedule, the only
// way a daemon injects a fault, requires -debug-hooks.
func (h *Harness) checkDebugOnly() error {
	if *h.faultSchedule != "" && !h.DebugHooks {
		return errors.New("-fault-schedule requires -debug-hooks")
	}
	return nil
}

// Start builds the planes from the parsed flags. The watchdog set is
// ticking when Start returns, so a dog added later is evaluated from its
// first Arm.
func (h *Harness) Start() {
	if err := h.checkDebugOnly(); err != nil {
		h.Fatal(err.Error())
	}
	h.Reg = obsv.NewRegistry()
	h.Health = obsv.NewHealth()
	h.Health.Register(h.Reg)
	if h.traceEvery != nil {
		h.Tracer = obsv.NewTracer(*h.traceEvery)
		h.Tracer.Register(h.Reg)
		h.Tracer.SetLogger(h.Log)
	}
	h.Flight = obsv.NewFlightRecorder(obsv.DefaultFlightSize)
	h.Flight.Register(h.Reg)
	h.DiagDir = h.DataDir
	if h.DiagDir == "" {
		h.DiagDir = os.TempDir()
	}
	h.Dogs = obsv.NewWatchdogSet(h.Name, h.DiagDir, h.Flight)
	h.Dogs.SetLogger(h.Log)
	h.Dogs.Register(h.Reg)
	h.Dogs.BindHealth(h.Health)
	h.Every(watchdogTick, h.Dogs.Tick)

	if *h.faultSchedule != "" {
		sched, err := fault.LoadSchedule(*h.faultSchedule)
		if err != nil {
			h.Fatal("loading fault schedule", "err", err)
		}
		h.Inj = fault.Activate(sched, *h.faultTarget)
		h.Inj.SetFlightRecorder(h.Flight)
		h.Log.Info("chaos plane armed", "schedule", *h.faultSchedule,
			"target", *h.faultTarget, "seed", sched.Seed, "rules", len(sched.Rules))
	}
}

// Observe starts the SLO engine over objectives and the readiness-flip
// dump and, with -metrics, brings the observability endpoint up. Call it
// once the readiness probes are registered: /readyz answers when it
// returns.
func (h *Harness) Observe(objectives []obsv.Objective) {
	h.slo = obsv.NewSLOEngine(h.Reg, objectives, *h.sloInterval)
	h.slo.Register(h.Reg)
	h.Every(h.slo.Interval(), h.slo.Tick)
	h.Every(readinessPoll, h.readinessFlips())
	if *h.metricsAddr == "" {
		return
	}
	ms, err := obsv.Endpoint{
		Daemon:   h.Name,
		Registry: h.Reg,
		Health:   h.Health,
		Tracer:   h.Tracer,
		Flight:   h.Flight,
		SLO:      h.slo,
	}.ListenAndServe(*h.metricsAddr)
	if err != nil {
		h.Fatal("metrics endpoint", "err", err)
	}
	h.metrics = ms
	h.Log.Info("observability endpoint up", "addr", ms.Addr)
}

// Serve instruments srv, calls Observe, then serves srv on addr through
// the injector, in the background. It returns the bound address.
func (h *Harness) Serve(srv *transport.Server, addr string, objectives []obsv.Objective) net.Addr {
	srv.Instrument(h.Reg, h.Tracer)
	srv.SetFlightRecorder(h.Flight)
	h.Observe(objectives)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		h.Fatal("listen", "addr", addr, "err", err)
	}
	srv.Serve(h.Inj.Listener(ln))
	h.srv = srv
	return ln.Addr()
}

// Go runs loop in the background. loop must return soon after stop
// closes: Shutdown waits for it before flushing what it may write to.
func (h *Harness) Go(loop func(stop <-chan struct{})) {
	h.loops.Add(1)
	go func() {
		defer h.loops.Done()
		loop(h.stop)
	}()
}

// Every calls tick every period, on its own goroutine, until stop
// closes. A tick in flight when stop closes finishes; none starts after.
func (h *Harness) Every(period time.Duration, tick func(now time.Time)) {
	h.Go(func(stop <-chan struct{}) {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				select {
				case <-stop: // both were ready: stopping wins
					return
				default:
				}
				tick(now)
			}
		}
	})
}

// readinessFlips returns the readiness poll: a flip from ready to not
// ready records the flip and writes a flight dump of what led up to it.
func (h *Harness) readinessFlips() func(now time.Time) {
	wasReady := true
	return func(time.Time) {
		ready := h.Health.Ready() == nil
		if wasReady && !ready {
			h.Flight.Record("process", "readiness_flip", "ready -> not ready", 0, obsv.TraceContext{})
			h.dump("readiness-flip")
		}
		wasReady = ready
	}
}

// dump writes a flight dump to DiagDir and logs where it landed.
func (h *Harness) dump(reason string) {
	path, err := h.Flight.DumpFile(h.DiagDir, h.Name, reason)
	if err != nil {
		h.Log.Error("flight dump failed", "reason", reason, "err", err)
		return
	}
	h.Log.Info("flight dump written", "reason", reason, "path", path)
}

// Run blocks until SIGINT or SIGTERM, then shuts down. SIGQUIT writes a
// flight dump and the daemon keeps running: the "give me the black box
// now" signal.
func (h *Harness) Run(flush func() error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	got := <-sig
	for ; got == syscall.SIGQUIT; got = <-sig {
		h.dump("sigquit")
	}
	h.Log.Info("shutting down", "signal", got.String())
	signal.Reset(syscall.SIGQUIT) // a hung shutdown dies with its goroutine stacks, Go's default
	if err := h.Shutdown(flush); err != nil {
		h.Fatal("flushing state", "err", err)
	}
}

// Shutdown is the one teardown order: the RPC server closes and its
// in-flight handlers return; stop closes and every Go and Every loop is
// waited for — the daemon's own, the watchdogs, the SLO engine and the
// readiness poll; the metrics endpoint closes; flush — the store, the
// journal — runs last, when nothing is left that could still write to
// what it closes.
func (h *Harness) Shutdown(flush func() error) error {
	if h.srv != nil {
		h.srv.Close()
	}
	close(h.stop)
	h.loops.Wait()
	if h.metrics != nil {
		h.metrics.Close()
	}
	return flush()
}
