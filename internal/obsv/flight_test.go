package obsv

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRing(t *testing.T) {
	var nilFR *FlightRecorder
	nilFR.Record("x", "y", "", 0, TraceContext{}) // nil-safe
	if ev := nilFR.Events(); ev != nil {
		t.Fatalf("nil recorder events = %v, want nil", ev)
	}

	fr := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		fr.Record("serve", "head_advance", "", uint64(i), TraceContext{})
	}
	ev := fr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	// Oldest first, the first two evicted.
	for i, e := range ev {
		if e.Value != uint64(i+2) {
			t.Fatalf("event %d value = %d, want %d", i, e.Value, i+2)
		}
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+3)
		}
	}

	// Trace ids render as hex.
	tc := NewTrace()
	fr.Record("watchdog", "stall", "wal-fsync: stuck", 0, tc)
	ev = fr.Events()
	last := ev[len(ev)-1]
	if last.Trace != fmt.Sprintf("%x", tc.TraceID[:]) {
		t.Fatalf("trace = %q, want hex of the recorded trace id", last.Trace)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				fr.Record("c", "k", "", uint64(n*1000+j), TraceContext{})
				if j%50 == 0 {
					fr.Events()
				}
			}
		}(i)
	}
	wg.Wait()
	ev := fr.Events()
	if len(ev) != 32 {
		t.Fatalf("retained %d events, want 32", len(ev))
	}
	// Seqs must be strictly increasing — no duplicate or torn slots.
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("seq not strictly increasing at %d: %d then %d", i, ev[i-1].Seq, ev[i].Seq)
		}
	}
}

func TestFlightDumpFileSchema(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(8)
	fr.Record("store", "wal_rotation", "", 3, TraceContext{})
	path, err := fr.DumpFile(dir, "monitord", "test")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "flight-") {
		t.Fatalf("dump file name %q, want flight-<ts>.json", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Schema != FlightSchema {
		t.Fatalf("schema = %q, want %q", dump.Schema, FlightSchema)
	}
	if dump.Daemon != "monitord" || dump.Reason != "test" {
		t.Fatalf("daemon/reason = %q/%q", dump.Daemon, dump.Reason)
	}
	if len(dump.Events) != 1 || dump.Events[0].Kind != "wal_rotation" {
		t.Fatalf("events = %+v, want the recorded wal_rotation", dump.Events)
	}
}

func TestFlightLimiter(t *testing.T) {
	var nilL *FlightLimiter
	if !nilL.Allow() {
		t.Fatal("nil limiter must always allow")
	}
	l := NewFlightLimiter(time.Hour)
	if !l.Allow() {
		t.Fatal("first event must pass")
	}
	if l.Allow() {
		t.Fatal("second event inside the gap must be suppressed")
	}
	l2 := NewFlightLimiter(0)
	if !l2.Allow() || !l2.Allow() {
		t.Fatal("zero-gap limiter must always allow")
	}
}

// TestFlightDumpOnPanic re-executes the test binary so a real panic
// unwinds through DumpOnPanic: the child must crash AND leave a
// schema-valid dump containing the panic event.
func TestFlightDumpOnPanic(t *testing.T) {
	if dir := os.Getenv("FLIGHT_PANIC_DIR"); dir != "" {
		fr := NewFlightRecorder(8)
		fr.Record("store", "append", "", 1, TraceContext{})
		defer fr.DumpOnPanic(dir, "panictest")
		panic("injected failure")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFlightDumpOnPanic$", "-test.count=1")
	cmd.Env = append(os.Environ(), "FLIGHT_PANIC_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("subprocess exited cleanly, want a panic:\n%s", out)
	}
	if !strings.Contains(string(out), "injected failure") {
		t.Fatalf("subprocess output lost the re-panic:\n%s", out)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("dump files = %v (err %v), want exactly one", matches, err)
	}
	b, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("panic dump is not valid JSON: %v", err)
	}
	if dump.Schema != FlightSchema || dump.Reason != "panic" {
		t.Fatalf("schema/reason = %q/%q, want %q/panic", dump.Schema, dump.Reason, FlightSchema)
	}
	var sawPanic bool
	for _, e := range dump.Events {
		if e.Component == "process" && e.Kind == "panic" && strings.Contains(e.Detail, "injected failure") {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatalf("dump lacks the panic event: %+v", dump.Events)
	}
}
