package blsapp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bls"
	"repro/internal/obsv"
)

// gatedInvoker parks every Invoke until gate closes, so a ceremony can
// be held in its invoke phase; entered receives once an Invoke is parked.
type gatedInvoker struct {
	*memInvoker
	gate    chan struct{}
	entered chan struct{}
}

func (g *gatedInvoker) Invoke(i int, req []byte) ([]byte, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.memInvoker.Invoke(i, req)
}

// ceremonyEvents returns "kind:detail" for the blsapp events fr holds.
func ceremonyEvents(fr *obsv.FlightRecorder) []string {
	var out []string
	for _, ev := range fr.Events() {
		if ev.Component == "blsapp" {
			out = append(out, strings.TrimSuffix(ev.Kind+":"+ev.Detail, ":"))
		}
	}
	return out
}

// TestCeremonyDiagnosticsAreAnArgument: the flight recorder and the
// watchdog reach a ceremony as values. A ceremony records its phases
// and its outcome on the recorder it was given and brackets itself with
// the watchdog it was given; a second coordinator in the same process,
// with its own recorder and no watchdog, sees and touches none of it.
// The watchdog set is ticked by hand, each tick well past the deadline.
func TestCeremonyDiagnosticsAreAnArgument(t *testing.T) {
	frA, frB := obsv.NewFlightRecorder(64), obsv.NewFlightRecorder(64)
	dogs := obsv.NewWatchdogSet("test", t.TempDir(), frA)
	dog := dogs.Add("refresh-ceremony", 20*time.Millisecond)
	reg := obsv.NewRegistry()
	dogs.Register(reg)
	tickLate := func() { dogs.Tick(time.Now().Add(time.Minute)) }

	// Coordinator A: held in the invoke phase past the deadline, so the
	// watchdog can only be stalled if the ceremony armed it.
	a := newRefreshFixture(t, 2, 3, "")
	for _, st := range a.states {
		st.SetFlightRecorder(frA)
	}
	refA, err := bls.NewRefresh(a.tk)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedInvoker{memInvoker: a.inv, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	done := make(chan error, 1)
	go func() {
		done <- RunRefreshCeremony(gated, refA, a.dev, CeremonyDiagnostics{Flight: frA, Watchdog: dog})
	}()
	<-gated.entered
	tickLate()
	if !dog.Stalled() {
		t.Fatal("the held ceremony did not stall the watchdog it was given")
	}

	// Coordinator B runs — and fails, one domain down — while A is held.
	b := newRefreshFixture(t, 2, 3, "")
	b.inv.fail[1] = true
	refB, err := bls.NewRefresh(b.tk)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunRefreshCeremony(b.inv, refB, b.dev, CeremonyDiagnostics{Flight: frB}); err == nil {
		t.Fatal("ceremony with a domain down succeeded")
	}
	tickLate()
	if !dog.Stalled() {
		t.Fatal("B's ceremony finishing disarmed A's watchdog")
	}

	close(gated.gate)
	if err := <-done; err != nil {
		t.Fatalf("A's ceremony: %v", err)
	}
	tickLate()
	if dog.Stalled() {
		t.Fatal("the watchdog is still stalled after the ceremony returned")
	}
	if got := reg.Value(`watchdog_trips_total{watchdog="refresh-ceremony"}`); got != 1 {
		t.Fatalf("watchdog tripped %v times, want 1", got)
	}

	wantA := "ceremony_phase:frames ceremony_phase:invoke share_refresh share_refresh share_refresh ceremony_phase:acks ceremony_done"
	if got := strings.Join(ceremonyEvents(frA), " "); got != wantA {
		t.Errorf("A's recorder holds\n  %s\nwant\n  %s", got, wantA)
	}
	gotB := ceremonyEvents(frB)
	if len(gotB) != 3 || gotB[0] != "ceremony_phase:frames" || gotB[1] != "ceremony_phase:invoke" ||
		!strings.HasPrefix(gotB[2], "ceremony_failed:") {
		t.Errorf("B's recorder holds %q, want frames, invoke, ceremony_failed", gotB)
	}
}
