// Package fault is the deployment's chaos plane: a deterministic,
// seeded fault-injection layer that turns "what happens when the
// network breaks" from an ad-hoc debugging exercise into a reproducible,
// coverage-tracked corpus of failure drills.
//
// A Schedule is a declarative list of fault rules — drops, delays,
// resets, one-way partitions, disk stalls and disk errors — each active
// in a time window relative to activation and gated by a deterministic
// decision stream derived from the schedule's seed. The same schedule
// file with the same seed injects the same fault pattern, so a CI
// failure reproduces locally from nothing but the seed; changing the
// seed explores a new pattern, which is what makes schedules fuzzable.
//
// An Injector applies a schedule from one process's point of view
// (selected by rule targets): it wraps net.Listener/net.Conn for the
// inbound direction, wraps dialed connections for the outbound
// direction, and exposes a disk-fault hook matching store.Options.
// Every injected fault records a flight-recorder event with component
// "fault" and kind "injected", so a drill is always distinguishable
// from a real incident on /debug/flight.
package fault

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Kind enumerates the injectable faults.
type Kind string

const (
	// KindDrop refuses NEW connections (outbound dials fail, accepted
	// inbound connections are closed immediately).
	KindDrop Kind = "drop"
	// KindReset closes an ESTABLISHED connection at a matching
	// read/write, the way a peer crash or middlebox RST looks.
	KindReset Kind = "reset"
	// KindDelay sleeps for the rule's Delay before a matching
	// read/write — injected latency.
	KindDelay Kind = "delay"
	// KindPartition black-holes matching traffic: established-connection
	// I/O in the matching direction blocks until the rule's window ends
	// (bytes neither flow nor error, as on a real partition) and new
	// dials fail immediately. Pair dir=in / dir=out rules on different
	// targets for asymmetric (one-way) partitions.
	KindPartition Kind = "partition"
	// KindDiskStall sleeps for Delay inside the disk-fault hook (the
	// store's WAL fsync path) — a seized disk.
	KindDiskStall Kind = "disk-stall"
	// KindDiskError returns an error from the disk-fault hook — an I/O
	// error the store treats as fail-stop (sticky WAL poison).
	KindDiskError Kind = "disk-error"
)

// Dir selects which traffic direction a rule applies to, from the
// target process's point of view.
type Dir string

const (
	// DirIn matches inbound traffic: reads on any connection, and
	// accepting new connections.
	DirIn Dir = "in"
	// DirOut matches outbound traffic: writes on any connection, and
	// dialing new connections.
	DirOut Dir = "out"
	// DirBoth matches both directions (the default).
	DirBoth Dir = "both"
)

// Rule is one declarative fault: what to inject, at whom, when, and how
// often. The zero Probability means 1 (always, once the other gates
// pass).
type Rule struct {
	// Kind is the fault to inject.
	Kind Kind
	// Target names the process the rule applies to; "*" (or empty)
	// matches every injector.
	Target string
	// Dir restricts the traffic direction (meaningless for disk kinds).
	Dir Dir
	// From/Until bound the active window, relative to Injector
	// activation. Until == 0 means "forever".
	From, Until time.Duration
	// Probability gates each matching operation through the seeded
	// decision stream; 0 is treated as 1.0.
	Probability float64
	// Every, when > 0, injects on every Every'th matching operation
	// (deterministic regardless of seed). Combined with Probability the
	// operation must pass both gates.
	Every int
	// Skip lets the first Skip matching operations through untouched —
	// deterministic partial failure ("the first connection succeeds,
	// everything after is dead").
	Skip int
	// Count, when > 0, caps the number of injections.
	Count int
	// Delay is the injected latency (delay, disk-stall).
	Delay time.Duration
}

// Schedule is a parsed fault schedule: a seed and an ordered rule list.
type Schedule struct {
	Seed  uint64
	Rules []Rule
}

// ruleState is one rule's runtime decision state. The PRNG stream is
// derived from (schedule seed, rule index) so each rule draws an
// independent, reproducible sequence.
type ruleState struct {
	rule Rule
	idx  int

	mu       sync.Mutex
	prng     uint64 // splitmix64 state
	ops      int    // matching operations seen
	injected int    // injections performed
}

// splitmix64 is the decision PRNG: tiny, seedable, and good enough for
// fault gating (this is chaos engineering, not cryptography).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// decide runs the rule's gates for one matching operation. It is the
// only place PRNG state advances, so single-threaded replays are fully
// deterministic and concurrent ones are deterministic in distribution.
func (rs *ruleState) decide() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	op := rs.ops
	rs.ops++
	if op < rs.rule.Skip {
		return false
	}
	if rs.rule.Count > 0 && rs.injected >= rs.rule.Count {
		return false
	}
	if rs.rule.Every > 0 && (op-rs.rule.Skip)%rs.rule.Every != rs.rule.Every-1 {
		return false
	}
	if p := rs.rule.Probability; p > 0 && p < 1 {
		draw := float64(splitmix64(&rs.prng)>>11) / float64(1<<53)
		if draw >= p {
			return false
		}
	}
	rs.injected++
	return true
}

// Injector applies a schedule from one process's point of view.
// The zero value (and a nil pointer) injects nothing, so call sites
// take an optional *Injector without branching.
type Injector struct {
	target string
	start  time.Time
	rules  []*ruleState
	flight atomic.Pointer[obsv.FlightRecorder]
}

// Activate instantiates sched for the process named target. The
// schedule clock starts now: a rule's From/Until are measured from this
// call. A nil schedule yields a nil (inert) injector.
func Activate(sched *Schedule, target string) *Injector {
	if sched == nil {
		return nil
	}
	in := &Injector{target: target, start: time.Now()}
	for i := range sched.Rules {
		r := &sched.Rules[i]
		if r.Target != "" && r.Target != "*" && r.Target != target {
			continue
		}
		seed := sched.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		in.rules = append(in.rules, &ruleState{rule: *r, idx: i, prng: seed})
	}
	return in
}

// SetFlightRecorder routes injected-fault events to fr (nil-safe on
// both sides). Events carry component "fault" and kind "injected".
func (in *Injector) SetFlightRecorder(fr *obsv.FlightRecorder) {
	if in == nil {
		return
	}
	in.flight.Store(fr)
}

// elapsed is the schedule-relative clock.
func (in *Injector) elapsed() time.Duration { return time.Since(in.start) }

// activeAt reports whether the rule's window covers t.
func activeAt(r *Rule, t time.Duration) bool {
	if t < r.From {
		return false
	}
	return r.Until == 0 || t < r.Until
}

// dirMatches reports whether the rule covers dir.
func dirMatches(r *Rule, dir Dir) bool {
	return r.Dir == "" || r.Dir == DirBoth || r.Dir == dir
}

// opClass distinguishes the operation sites faults attach to.
type opClass int

const (
	opConnNew opClass = iota // dial (out) or accept (in)
	opConnIO                 // read (in) or write (out)
	opDisk
)

func kindAppliesTo(k Kind, class opClass) bool {
	switch class {
	case opConnNew:
		return k == KindDrop || k == KindPartition || k == KindDelay
	case opConnIO:
		return k == KindReset || k == KindPartition || k == KindDelay
	case opDisk:
		return k == KindDiskStall || k == KindDiskError
	}
	return false
}

// match walks the rules in order and returns the first that is active,
// matches (class, dir), and passes its decision gates.
func (in *Injector) match(class opClass, dir Dir) *ruleState {
	if in == nil {
		return nil
	}
	t := in.elapsed()
	for _, rs := range in.rules {
		r := &rs.rule
		if !kindAppliesTo(r.Kind, class) || !activeAt(r, t) {
			continue
		}
		if class != opDisk && !dirMatches(r, dir) {
			continue
		}
		if rs.decide() {
			return rs
		}
	}
	return nil
}

// record logs one injection to the flight recorder. detail identifies
// the fault and site, e.g. "reset out write".
func (in *Injector) record(rs *ruleState, detail string) {
	in.flight.Load().Record("fault", "injected", detail, uint64(rs.idx), obsv.TraceContext{})
}

// healWait blocks until the rule's window has passed (partition
// semantics: the bytes go nowhere, then the link heals). Returns
// immediately for open-ended rules... which would otherwise block
// forever: an open-ended partition instead behaves like reset at the
// I/O site, so schedules stay live by construction.
func (in *Injector) healWait(rs *ruleState) (healed bool) {
	if rs.rule.Until == 0 {
		return false
	}
	for {
		remaining := rs.rule.Until - in.elapsed()
		if remaining <= 0 {
			return true
		}
		sleep := remaining
		if sleep > 50*time.Millisecond {
			sleep = 50 * time.Millisecond
		}
		time.Sleep(sleep)
	}
}

// DiskFault is the store-facing hook (matches store.Options.DiskFault):
// it sleeps under an active disk-stall rule and returns a *DiskError
// under an active disk-error rule. op names the site ("wal-fsync").
// Safe on nil injectors (returns nil).
func (in *Injector) DiskFault(op string) error {
	rs := in.match(opDisk, DirBoth)
	if rs == nil {
		return nil
	}
	switch rs.rule.Kind {
	case KindDiskStall:
		in.record(rs, "disk-stall "+op)
		time.Sleep(rs.rule.Delay)
		return nil
	case KindDiskError:
		in.record(rs, "disk-error "+op)
		return &DiskError{Op: op}
	}
	return nil
}

// DiskError is an injected disk failure.
type DiskError struct{ Op string }

func (e *DiskError) Error() string { return "fault: injected disk error on " + e.Op }
