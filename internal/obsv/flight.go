package obsv

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: the daemon's black box. A bounded ring of structured
// operational events — head advances, poison transitions, admission
// refusals, ceremony phases, WAL rotations, RPC errors — recorded from
// every instrumented subsystem. Recording is allocation-free (pinned by
// TestHotPathAllocs) so hooks can live on hot paths; JSON encoding is
// deferred to dump time. The ring is dumpable on demand via
// /debug/flight and written to <dir>/flight-<ts>.json automatically on
// panic and watchdog trips, and by the daemon harness on SIGQUIT and
// readiness flips — the evidence an operator reads *after* an incident,
// when the process may already be gone.

// FlightSchema identifies the dump format; bump on incompatible change.
const FlightSchema = "dt-flight/1"

// flightSlot is one in-ring event. Strings are stored by header (no
// copy), the trace context by value — Record never allocates.
type flightSlot struct {
	seq       uint64
	t         int64 // unix nanoseconds
	component string
	kind      string
	detail    string
	value     uint64
	trace     TraceContext
}

// FlightRecorder is a fixed-size ring of operational events. The zero
// pointer is usable: every method is a no-op on nil, so components take
// an optional recorder without branching at call sites.
type FlightRecorder struct {
	total Counter

	mu   sync.Mutex
	ring ring[flightSlot] // an event's seq is its push count
}

// DefaultFlightSize is the event capacity daemons use.
const DefaultFlightSize = 1024

// NewFlightRecorder creates a recorder retaining the last size events
// (size <= 0 means DefaultFlightSize).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{ring: newRing[flightSlot](size)}
}

// Record appends one event: which component, what kind of event, an
// optional human detail, an optional numeric value (a size, a count, a
// duration in nanoseconds — kind-dependent), and the active trace
// context if any. Safe on nil receivers and for concurrent use; never
// allocates.
func (r *FlightRecorder) Record(component, kind, detail string, value uint64, tc TraceContext) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.ring.push(flightSlot{
		seq: uint64(r.ring.n) + 1, t: now,
		component: component, kind: kind, detail: detail,
		value: value, trace: tc,
	})
	r.mu.Unlock()
	r.total.Inc()
}

// Register exposes the recorder's event counter.
func (r *FlightRecorder) Register(reg *Registry) {
	if r == nil {
		return
	}
	reg.Register("flight_events_total", "operational events recorded by the flight recorder", CounterFunc(r.total.Value))
}

// FlightEvent is the exported (JSON) form of one recorded event.
type FlightEvent struct {
	Seq        uint64 `json:"seq"`
	TimeUnixNs int64  `json:"t_unix_ns"`
	Component  string `json:"component"`
	Kind       string `json:"kind"`
	Detail     string `json:"detail,omitempty"`
	Value      uint64 `json:"value,omitempty"`
	Trace      string `json:"trace,omitempty"` // hex trace id
}

// Events returns the retained events, oldest first.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	slots := r.ring.items()
	r.mu.Unlock()
	out := make([]FlightEvent, len(slots))
	for i, s := range slots {
		out[i] = FlightEvent{
			Seq: s.seq, TimeUnixNs: s.t,
			Component: s.component, Kind: s.kind, Detail: s.detail,
			Value: s.value,
		}
		if s.trace.Valid() {
			out[i].Trace = hex.EncodeToString(s.trace.TraceID[:])
		}
	}
	return out
}

// FlightDump is the self-describing dump envelope.
type FlightDump struct {
	Schema         string        `json:"schema"`
	Daemon         string        `json:"daemon"`
	Reason         string        `json:"reason"`
	DumpedAtUnixNs int64         `json:"dumped_at_unix_ns"`
	Events         []FlightEvent `json:"events"`
}

// WriteJSON writes a full dump envelope to w.
func (r *FlightRecorder) WriteJSON(w io.Writer, daemon, reason string) error {
	dump := FlightDump{
		Schema: FlightSchema, Daemon: daemon, Reason: reason,
		DumpedAtUnixNs: time.Now().UnixNano(),
		Events:         r.Events(),
	}
	if dump.Events == nil {
		dump.Events = []FlightEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(dump)
}

// DumpFile writes a dump to <dir>/flight-<unixnano>.json and returns
// the path.
func (r *FlightRecorder) DumpFile(dir, daemon, reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%d.json", time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.WriteJSON(f, daemon, reason); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// DumpOnPanic is deferred at the top of a daemon's main: on panic it
// records the panic value, writes a dump, and re-panics so the crash
// still surfaces with its stack.
//
//	defer flight.DumpOnPanic(dataDir, "monitord")
func (r *FlightRecorder) DumpOnPanic(dir, daemon string) {
	if r == nil {
		return
	}
	if p := recover(); p != nil {
		r.Record("process", "panic", fmt.Sprint(p), 0, TraceContext{})
		r.DumpFile(dir, daemon, "panic")
		panic(p)
	}
}

// FlightLimiter rate-limits flight events emitted from hot paths (e.g.
// one admission-refusal event per interval, not one per refused
// request). Allow is a single atomic compare-and-swap; nil receivers
// always allow.
type FlightLimiter struct {
	minGap int64
	last   atomic.Int64
}

// NewFlightLimiter allows one event per gap.
func NewFlightLimiter(gap time.Duration) *FlightLimiter {
	return &FlightLimiter{minGap: gap.Nanoseconds()}
}

// Allow reports whether an event may be recorded now.
func (l *FlightLimiter) Allow() bool {
	if l == nil {
		return true
	}
	now := time.Now().UnixNano()
	last := l.last.Load()
	if now-last < l.minGap {
		return false
	}
	return l.last.CompareAndSwap(last, now)
}
