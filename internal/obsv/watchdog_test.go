package obsv

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Watchdog trips are evaluated by driving Tick with explicit times — no
// real ticker, no sleeps proportional to deadlines.

func TestWatchdogOperationMode(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(16)
	set := NewWatchdogSet("testd", dir, fr)
	reg := NewRegistry()
	set.Register(reg)
	h := NewHealth()
	set.BindHealth(h)
	w := set.Add("wal-fsync", 100*time.Millisecond)

	now := time.Now()
	set.Tick(now)
	if w.Stalled() || w.trips.Value() != 0 {
		t.Fatal("idle watchdog must not be stalled")
	}

	w.Arm()
	set.Tick(now.Add(50 * time.Millisecond))
	if w.Stalled() {
		t.Fatal("armed under deadline must not be stalled")
	}
	set.Tick(now.Add(200 * time.Millisecond))
	if !w.Stalled() {
		t.Fatal("armed past deadline must be stalled")
	}
	if w.trips.Value() != 1 {
		t.Fatalf("trips = %d, want 1", w.trips.Value())
	}
	// Still stalled on the next tick: same episode, no second trip.
	set.Tick(now.Add(300 * time.Millisecond))
	if w.trips.Value() != 1 {
		t.Fatalf("trips after second tick = %d, want 1 (one episode)", w.trips.Value())
	}
	if v := reg.Value(`watchdog_stalled{watchdog="wal-fsync"}`); v != 1 {
		t.Fatalf("watchdog_stalled = %v, want 1", v)
	}
	if v := reg.Value(`watchdog_trips_total{watchdog="wal-fsync"}`); v != 1 {
		t.Fatalf("watchdog_trips_total = %v, want 1", v)
	}

	// Degraded, not failed: Ready() passes while the degraded probe
	// names the stall.
	if err := h.Ready(); err != nil {
		t.Fatalf("Ready() = %v, want nil while merely degraded", err)
	}
	deg := h.DegradedStates()
	if _, ok := deg["watchdog:wal-fsync"]; !ok {
		t.Fatalf("degraded states = %v, want watchdog:wal-fsync", deg)
	}
	if !strings.Contains(h.Report(), "degraded watchdog:wal-fsync: stalled") {
		t.Fatalf("report lacks degraded line:\n%s", h.Report())
	}

	// The trip recorded a flight event with a fresh trace id and
	// captured profile snapshots.
	var stall *FlightEvent
	for _, e := range fr.Events() {
		if e.Component == "watchdog" && e.Kind == "stall" {
			stall = &e
			break
		}
	}
	if stall == nil {
		t.Fatal("no watchdog stall event in the flight recorder")
	}
	if stall.Trace == "" || !strings.Contains(stall.Detail, "wal-fsync") {
		t.Fatalf("stall event = %+v, want trace id and watchdog name", stall)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "stall-wal-fsync-*.goroutines.txt")); len(m) == 0 {
		t.Fatal("no goroutine snapshot captured on trip")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "stall-wal-fsync-*.heap.pprof")); len(m) == 0 {
		t.Fatal("no heap snapshot captured on trip")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "flight-*.json")); len(m) == 0 {
		t.Fatal("no flight dump written on trip")
	}

	// Done clears the episode and the degraded state.
	w.Done()
	set.Tick(now.Add(400 * time.Millisecond))
	if w.Stalled() {
		t.Fatal("completed operation must clear the stall")
	}
	if len(h.DegradedStates()) != 0 {
		t.Fatalf("degraded states after recovery = %v, want none", h.DegradedStates())
	}
	if v := reg.Value(`watchdog_stalled{watchdog="wal-fsync"}`); v != 0 {
		t.Fatalf("watchdog_stalled after recovery = %v, want 0", v)
	}

	// A new stall is a new episode.
	w.Arm()
	set.Tick(now.Add(1 * time.Second))
	if w.trips.Value() != 2 {
		t.Fatalf("trips after second episode = %d, want 2", w.trips.Value())
	}
	w.Done()
}

func TestWatchdogProbeMode(t *testing.T) {
	set := NewWatchdogSet("testd", t.TempDir(), nil)
	lag := 0
	w := set.AddProbe("frontier-lag", 100*time.Millisecond, func() (bool, string) {
		return lag > 0, "frontier lagging"
	})
	now := time.Now()
	set.Tick(now)
	if w.Stalled() {
		t.Fatal("healthy probe must not stall")
	}
	lag = 5
	set.Tick(now.Add(10 * time.Millisecond)) // first bad tick starts the clock
	if w.Stalled() {
		t.Fatal("condition must hold for the deadline before stalling")
	}
	set.Tick(now.Add(200 * time.Millisecond))
	if !w.Stalled() || w.trips.Value() != 1 {
		t.Fatalf("stalled=%v trips=%d, want stalled after deadline held", w.Stalled(), w.trips.Value())
	}
	lag = 0
	set.Tick(now.Add(300 * time.Millisecond))
	if w.Stalled() {
		t.Fatal("recovered probe must clear the stall")
	}
	// Flap: condition returns, clock restarts from zero.
	lag = 5
	set.Tick(now.Add(310 * time.Millisecond))
	if w.Stalled() {
		t.Fatal("fresh stall must re-arm the deadline, not trip instantly")
	}
	set.Tick(now.Add(500 * time.Millisecond))
	if w.trips.Value() != 2 {
		t.Fatalf("trips = %d, want 2 after second held episode", w.trips.Value())
	}
}

func TestWatchdogProfileRateLimit(t *testing.T) {
	dir := t.TempDir()
	set := NewWatchdogSet("testd", dir, NewFlightRecorder(8))
	w := set.Add("op", 10*time.Millisecond)
	now := time.Now()
	for i := 0; i < 3; i++ {
		w.Arm()
		set.Tick(now.Add(time.Duration(i+1) * time.Second))
		w.Done()
	}
	if w.trips.Value() != 3 {
		t.Fatalf("trips = %d, want 3", w.trips.Value())
	}
	m, _ := filepath.Glob(filepath.Join(dir, "stall-op-*.goroutines.txt"))
	if len(m) != 1 {
		var names []string
		for _, p := range m {
			names = append(names, filepath.Base(p))
		}
		t.Fatalf("profile snapshots = %v, want exactly 1 (rate-limited)", names)
	}
}

func TestWatchdogNilSafety(t *testing.T) {
	var w *Watchdog
	w.Arm()
	w.Done()
	if w.Stalled() {
		t.Fatal("nil watchdog must be inert")
	}
	var s *WatchdogSet
	s.Tick(time.Now())
	s.Register(nil2())
	s.BindHealth(nil)
	if s.Add("x", time.Second) != nil {
		t.Fatal("nil set must return nil watchdogs")
	}
}

// nil2 keeps the nil-registry call from being a typed-nil footgun in
// the test above.
func nil2() *Registry { return nil }

// TestWatchdogTickEvaluatesEveryDog: one Tick polls every probe and
// checks every armed operation, each against the tick's time.
func TestWatchdogTickEvaluatesEveryDog(t *testing.T) {
	set := NewWatchdogSet("testd", t.TempDir(), nil)
	probeCalls := 0
	set.AddProbe("probe", time.Hour, func() (bool, string) {
		probeCalls++
		return false, ""
	})
	op := set.Add("op", time.Second)
	op.Arm()
	now := time.Now()
	set.Tick(now)
	if probeCalls != 1 || op.Stalled() {
		t.Fatalf("after one tick: %d probe calls, op stalled %v; want 1, false", probeCalls, op.Stalled())
	}
	set.Tick(now.Add(2 * time.Second))
	if probeCalls != 2 || !op.Stalled() {
		t.Fatalf("after a tick past the deadline: %d probe calls, op stalled %v; want 2, true", probeCalls, op.Stalled())
	}
}
