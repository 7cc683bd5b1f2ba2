package daemon

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/transport"
)

func newHarness(t *testing.T, traced bool) (*Harness, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	h := New("testd", fs, traced)
	h.Log = obsv.NewLogger(io.Discard, h.Name, nil)
	return h, fs
}

// TestDebugOnlyRule: -fault-schedule is refused unless -debug-hooks is
// set; no other flag is debug-only.
func TestDebugOnlyRule(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the error, "" for accepted
	}{
		{"defaults", nil, ""},
		{"hooks alone", []string{"-debug-hooks"}, ""},
		{"schedule without hooks", []string{"-fault-schedule", "s.txt"}, "-fault-schedule requires -debug-hooks"},
		{"schedule with hooks", []string{"-debug-hooks", "-fault-schedule", "s.txt"}, ""},
		{"schedule explicitly at its default", []string{"-fault-schedule", ""}, ""},
		{"target alone is not debug-only", []string{"-fault-target", "other"}, ""},
	} {
		h, fs := newHarness(t, true)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		err := h.checkDebugOnly()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestShutdownOrder drives a harness through its whole life and checks
// the teardown sequence from inside it: a background loop is told to
// stop only once the RPC server is closed; flush runs only once every
// loop has returned and the metrics endpoint is gone.
func TestShutdownOrder(t *testing.T) {
	h, fs := newHarness(t, true)
	if err := fs.Parse([]string{"-metrics", "127.0.0.1:0", "-data", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	h.Start()
	srv := transport.NewServer()
	srv.Handle("ping", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	addr := h.Serve(srv, "127.0.0.1:0", nil).String()
	metricsURL := "http://" + h.metrics.Addr + "/readyz"

	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("ping", struct{}{}, nil); err != nil {
		t.Fatalf("ping before shutdown: %v", err)
	}
	if resp, err := http.Get(metricsURL); err != nil || resp.StatusCode != 200 {
		t.Fatalf("/readyz before shutdown: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	var order []string // appended from the loop, then flush; Shutdown orders them
	inLoop := make(chan struct{})
	h.Go(func(stop <-chan struct{}) {
		close(inLoop)
		<-stop
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			order = append(order, "loop stopped while the RPC listener still accepts")
		}
		if resp, err := http.Get(metricsURL); err != nil {
			order = append(order, "loop stopped after the metrics endpoint closed")
		} else {
			resp.Body.Close()
		}
		time.Sleep(50 * time.Millisecond) // flush must wait this out
		order = append(order, "loop")
	})
	<-inLoop
	err = h.Shutdown(func() error {
		if resp, err := http.Get(metricsURL); err == nil {
			resp.Body.Close()
			order = append(order, "flush ran with the metrics endpoint still up")
		}
		order = append(order, "flush")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ", "); got != "loop, flush" {
		t.Fatalf("teardown sequence: %s; want loop, flush", got)
	}
}

// TestHarnessesShareNothing: two harnesses in one process have their own
// registries, flight recorders and watchdog sets.
func TestHarnessesShareNothing(t *testing.T) {
	a, afs := newHarness(t, true)
	b, bfs := newHarness(t, false)
	afs.Parse(nil)
	bfs.Parse(nil)
	a.Start()
	b.Start()
	a.Observe(nil)
	b.Observe(nil)
	a.Dogs.Add("only-a", time.Hour)
	a.Flight.Record("test", "only-a", "", 0, obsv.TraceContext{})
	if n := len(b.Flight.Events()); n != 0 {
		t.Errorf("b's flight recorder holds %d events recorded on a", n)
	}
	if _, ok := b.Reg.Snapshot()[`watchdog_stalled{watchdog="only-a"}`]; ok {
		t.Error("b's registry carries a's watchdog")
	}
	if _, ok := a.Reg.Snapshot()[`watchdog_stalled{watchdog="only-a"}`]; !ok {
		t.Error("a's registry lacks its own watchdog series")
	}
	if b.Tracer != nil || a.Tracer == nil {
		t.Errorf("tracer: a=%v b=%v, want only the traced daemon to have one", a.Tracer, b.Tracer)
	}
	for _, h := range []*Harness{a, b} {
		if err := h.Shutdown(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEveryStopsAtShutdown: Every ticks on the real clock; a tick in
// flight when Shutdown closes stop finishes before Shutdown returns, and
// none starts after stop has closed, though the ticker fired meanwhile.
func TestEveryStopsAtShutdown(t *testing.T) {
	h, fs := newHarness(t, false)
	fs.Parse(nil)
	h.Start()
	var ticks atomic.Int64
	var finished atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	h.Every(time.Microsecond, func(time.Time) {
		if ticks.Add(1) == 2 {
			close(held)
			<-release
			finished.Store(true)
		}
	})
	<-held // the second tick is in flight
	shut := make(chan error, 1)
	go func() { shut <- h.Shutdown(func() error { return nil }) }()
	<-h.stop
	close(release)
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Error("Shutdown returned before the tick in flight finished")
	}
	if n := ticks.Load(); n != 2 {
		t.Errorf("%d ticks ran, want 2: a tick started after stop closed", n)
	}
}

// TestReadinessFlipDumps: the readiness poll writes one flight dump when
// readiness flips from ready to not ready, none while it stays down.
func TestReadinessFlipDumps(t *testing.T) {
	h, fs := newHarness(t, false)
	if err := fs.Parse([]string{"-data", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Shutdown(func() error { return nil })
	failing := false
	h.Health.Set("probe", func() error {
		if failing {
			return errors.New("down")
		}
		return nil
	})
	poll := h.readinessFlips()
	now := time.Now()
	poll(now)
	failing = true
	poll(now.Add(readinessPoll))
	poll(now.Add(2 * readinessPoll))

	dumps, err := filepath.Glob(filepath.Join(h.DiagDir, "flight-*.json"))
	if err != nil || len(dumps) != 1 {
		t.Fatalf("flight dumps = %v (%v), want exactly one", dumps, err)
	}
	b, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump obsv.FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("flip dump invalid: %v", err)
	}
	if dump.Reason != "readiness-flip" || len(dump.Events) != 1 || dump.Events[0].Kind != "readiness_flip" {
		t.Fatalf("dump = %+v, want reason readiness-flip holding the flip event", dump)
	}
}
