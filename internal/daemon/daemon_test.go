package daemon

import (
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"strings"
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
