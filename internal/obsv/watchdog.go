package obsv

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Stall watchdogs: deadline-armed progress sentinels. A watchdog does
// not measure latency — the histograms do that — it answers "is this
// operation *stuck right now*". Two modes:
//
//   - Operation mode (Arm/Done): a hot path brackets its critical
//     section; the watchdog trips when an in-flight operation has been
//     armed longer than the deadline (a WAL fsync that never returns).
//   - Probe mode (AddProbe): a condition polled every tick; the
//     watchdog trips when the condition has held *continuously* for the
//     deadline (a push queue that never drains, a frontier that never
//     advances).
//
// A trip is a diagnosis event, not a failure: it emits a flight-
// recorder event carrying a fresh trace id, captures goroutine + heap
// profile snapshots plus a flight dump (rate-limited), and flips a
// named *degraded* health state — visible in the /readyz body and
// process_degraded, but the daemon stays ready. Fail-closed remains the
// job of the readiness probes; watchdogs are the early warning.

// Watchdog is one progress sentinel. Obtain from WatchdogSet.Add or
// AddProbe. All methods are safe on nil receivers so components accept
// an optional watchdog without call-site branches.
type Watchdog struct {
	name     string
	deadline time.Duration
	probe    func() (stalled bool, detail string) // nil => operation mode
	set      *WatchdogSet

	trips   Counter
	stalled atomic.Bool // currently past deadline (cleared on recovery)

	mu         sync.Mutex
	inflight   int
	oldest     time.Time // arm time of the oldest in-flight operation
	probeSince time.Time // when the probe first reported stalled
	episode    bool      // already tripped for the current stall
	lastDetail string
}

// Arm marks an operation in flight (operation mode). Concurrent
// operations are tracked as a set: the watchdog watches the oldest.
func (w *Watchdog) Arm() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.inflight++
	if w.inflight == 1 {
		w.oldest = time.Now()
	}
	w.mu.Unlock()
}

// Done marks an operation complete. When the last in-flight operation
// finishes, the stall episode (if any) ends and the degraded state
// self-clears.
func (w *Watchdog) Done() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.inflight--
	if w.inflight <= 0 {
		w.inflight = 0
		w.episode = false
		w.stalled.Store(false)
	} else {
		// Approximation: restart the clock on the remaining set rather
		// than tracking per-operation deadlines. Good enough for "is
		// progress happening at all".
		w.oldest = time.Now()
	}
	w.mu.Unlock()
}

// Stalled reports whether the watchdog is currently past its deadline.
func (w *Watchdog) Stalled() bool { return w != nil && w.stalled.Load() }

// evaluate inspects progress at tick time and reports whether the
// watchdog is stalled past its deadline, for how long, and whether this
// is the first tick of a new stall episode (=> trip).
func (w *Watchdog) evaluate(now time.Time) (stalled bool, elapsed time.Duration, detail string, newTrip bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.probe == nil {
		if w.inflight > 0 && now.Sub(w.oldest) > w.deadline {
			stalled = true
			elapsed = now.Sub(w.oldest)
			detail = fmt.Sprintf("%d in-flight operation(s), oldest stuck %s (deadline %s)",
				w.inflight, elapsed.Round(time.Millisecond), w.deadline)
		}
	} else {
		hit, d := w.probe()
		if !hit {
			w.probeSince = time.Time{}
			w.episode = false
			w.stalled.Store(false)
			return false, 0, "", false
		}
		if w.probeSince.IsZero() {
			w.probeSince = now
		}
		if now.Sub(w.probeSince) > w.deadline {
			stalled = true
			elapsed = now.Sub(w.probeSince)
			detail = fmt.Sprintf("%s (held %s, deadline %s)", d, elapsed.Round(time.Millisecond), w.deadline)
		}
	}
	if stalled {
		w.lastDetail = detail
		w.stalled.Store(true)
		if !w.episode {
			w.episode = true
			newTrip = true
		}
	} else if w.probe == nil && w.inflight == 0 {
		w.episode = false
		w.stalled.Store(false)
	} else if w.probe == nil {
		// In flight but under deadline: not (or no longer) stalled.
		w.stalled.Store(false)
	}
	return stalled, elapsed, detail, newTrip
}

// detailNow returns the most recent stall detail (for the degraded
// health probe's error message).
func (w *Watchdog) detailNow() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastDetail
}

// WatchdogSet owns a daemon's watchdogs and the shared trip machinery:
// each Tick evaluates every dog; trips are counted per dog, recorded
// in the flight recorder, and capture profile snapshots into dir
// (rate-limited across the set).
type WatchdogSet struct {
	daemon string
	dir    string
	fr     *FlightRecorder

	logger   atomic.Pointer[slog.Logger]
	profiles *FlightLimiter // profile captures, at DefaultProfileGap

	mu     sync.Mutex
	dogs   []*Watchdog
	health *Health
	trips  *Family[*Counter]
	gauge  *Family[*Gauge]
}

// DefaultProfileGap is the minimum spacing between profile captures —
// a flapping watchdog must not fill the disk with snapshots.
const DefaultProfileGap = 5 * time.Minute

// NewWatchdogSet creates an empty set. Trip evidence (profiles, flight
// dumps) is written to dir; fr may be nil.
func NewWatchdogSet(daemon, dir string, fr *FlightRecorder) *WatchdogSet {
	return &WatchdogSet{daemon: daemon, dir: dir, fr: fr, profiles: NewFlightLimiter(DefaultProfileGap)}
}

// SetLogger attaches a logger for trip lines.
func (s *WatchdogSet) SetLogger(l *slog.Logger) {
	if s == nil {
		return
	}
	s.logger.Store(l)
}

// Add creates an operation-mode watchdog: it trips when an Arm()ed
// operation stays in flight past deadline.
func (s *WatchdogSet) Add(name string, deadline time.Duration) *Watchdog {
	return s.add(&Watchdog{name: name, deadline: deadline})
}

// AddProbe creates a probe-mode watchdog: it trips when probe reports
// stalled continuously for deadline.
func (s *WatchdogSet) AddProbe(name string, deadline time.Duration, probe func() (bool, string)) *Watchdog {
	return s.add(&Watchdog{name: name, deadline: deadline, probe: probe})
}

func (s *WatchdogSet) add(w *Watchdog) *Watchdog {
	if s == nil {
		return nil
	}
	w.set = s
	s.mu.Lock()
	s.dogs = append(s.dogs, w)
	h, g := s.health, s.gauge
	s.mu.Unlock()
	if h != nil {
		s.bindDegraded(h, w)
	}
	if g != nil {
		g.With(w.name).Set(0)
	}
	return w
}

// Register exposes watchdog_trips_total{watchdog} and
// watchdog_stalled{watchdog}.
func (s *WatchdogSet) Register(reg *Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trips = reg.CounterVec("watchdog_trips_total", "stall episodes per watchdog", "watchdog")
	s.gauge = reg.GaugeVec("watchdog_stalled", "1 while the watchdog is past its deadline", "watchdog")
	for _, w := range s.dogs {
		s.gauge.With(w.name).Set(0)
	}
}

// BindHealth flips a named degraded state per watchdog: degraded while
// stalled, self-clearing on recovery. Degraded states never affect
// /readyz's status code — that is the whole point.
func (s *WatchdogSet) BindHealth(h *Health) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.health = h
	dogs := append([]*Watchdog(nil), s.dogs...)
	s.mu.Unlock()
	for _, w := range dogs {
		s.bindDegraded(h, w)
	}
}

func (s *WatchdogSet) bindDegraded(h *Health, w *Watchdog) {
	h.SetDegraded("watchdog:"+w.name, func() error {
		if w.Stalled() {
			return fmt.Errorf("stalled: %s", w.detailNow())
		}
		return nil
	})
}

// Tick evaluates every watchdog at now: a dog stalled past its
// deadline trips once per episode and clears when progress resumes.
func (s *WatchdogSet) Tick(now time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	dogs := append([]*Watchdog(nil), s.dogs...)
	gauge := s.gauge
	trips := s.trips
	s.mu.Unlock()
	for _, w := range dogs {
		stalled, elapsed, detail, newTrip := w.evaluate(now)
		if gauge != nil {
			v := int64(0)
			if stalled {
				v = 1
			}
			gauge.With(w.name).Set(v)
		}
		if newTrip {
			s.trip(w, elapsed, detail, trips)
		}
	}
}

// trip handles the first tick of a stall episode: count it, record the
// flight event with a fresh trace id, and (rate-limited) capture
// goroutine + heap profiles plus a flight dump.
func (s *WatchdogSet) trip(w *Watchdog, elapsed time.Duration, detail string, trips *Family[*Counter]) {
	w.trips.Inc()
	if trips != nil {
		trips.With(w.name).Inc()
	}
	tc := NewTrace()
	s.fr.Record("watchdog", "stall", w.name+": "+detail, uint64(elapsed.Nanoseconds()), tc)
	if l := s.logger.Load(); l != nil {
		l.Warn("watchdog tripped", "watchdog", w.name, "detail", detail,
			"trace_id", fmt.Sprintf("%x", tc.TraceID[:]))
	}
	if s.profiles.Allow() {
		s.captureProfiles(w.name)
		if s.fr != nil && s.dir != "" {
			s.fr.DumpFile(s.dir, s.daemon, "watchdog-"+w.name)
		}
	}
}

// captureProfiles writes goroutine stacks (the "what is everyone
// waiting on" view) and a heap profile next to the flight dumps.
func (s *WatchdogSet) captureProfiles(name string) {
	if s.dir == "" {
		return
	}
	ts := time.Now().UnixNano()
	if f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("stall-%s-%d.goroutines.txt", name, ts))); err == nil {
		pprof.Lookup("goroutine").WriteTo(f, 2)
		f.Close()
	}
	if f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("stall-%s-%d.heap.pprof", name, ts))); err == nil {
		pprof.Lookup("heap").WriteTo(f, 0)
		f.Close()
	}
}
