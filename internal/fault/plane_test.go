package fault_test

import (
	"encoding/json"
	"net"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// node is one served endpoint with its own injector and flight recorder.
type node struct {
	inj  *fault.Injector
	fr   *obsv.FlightRecorder
	addr string
}

func startNode(t *testing.T, target string, rules ...fault.Rule) *node {
	t.Helper()
	n := &node{
		inj: fault.Activate(&fault.Schedule{Seed: 1, Rules: rules}, target),
		fr:  obsv.NewFlightRecorder(16),
	}
	n.inj.SetFlightRecorder(n.fr)
	srv := transport.NewServer()
	srv.Handle("head", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(n.inj.Listener(ln))
	t.Cleanup(func() { srv.Close() })
	n.addr = ln.Addr().String()
	return n
}

// injected returns the details of the node's injected-fault events.
func (n *node) injected() []string {
	var out []string
	for _, ev := range n.fr.Events() {
		if ev.Component == "fault" && ev.Kind == "injected" {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// TestInjectorIsAnArgument: the chaos plane reaches a server through
// Serve(inj.Listener(ln)) and a client through ManagedOptions.Dial —
// nothing process-wide is installed — so two nodes in one process with
// different injectors each see exactly their own faults.
func TestInjectorIsAnArgument(t *testing.T) {
	// a drops the first connection it accepts; b fails its first
	// outbound dial. Neither rule may leak onto the other node.
	a := startNode(t, "a", fault.Rule{Kind: fault.KindDrop, Dir: fault.DirIn, Count: 1})
	b := startNode(t, "b", fault.Rule{Kind: fault.KindDrop, Dir: fault.DirOut, Count: 1})

	// b calls a through b's injector: the dial is refused once (b's
	// rule), then a closes the first connection that does arrive (a's
	// rule); the idempotent read retries through both.
	toA := transport.DialManaged(a.addr, transport.ManagedOptions{Dial: b.inj.Dial})
	defer toA.Close()
	if err := toA.Call("head", struct{}{}, nil); err != nil {
		t.Fatalf("call through one dial drop and one accept drop: %v", err)
	}
	if dials, retries, _ := toA.Stats(); dials != 2 || retries != 2 {
		t.Fatalf("b→a: dials=%d retries=%d, want 2 dials and 2 retries", dials, retries)
	}

	// A plain client reaches b untouched: b's only rule is outbound, and
	// a's accept rule belongs to a's listener alone.
	toB := transport.DialManaged(b.addr, transport.ManagedOptions{})
	defer toB.Close()
	if err := toB.Call("head", struct{}{}, nil); err != nil {
		t.Fatalf("plain call to b: %v", err)
	}
	if dials, retries, _ := toB.Stats(); dials != 1 || retries != 0 {
		t.Fatalf("→b: dials=%d retries=%d, want 1 and 0", dials, retries)
	}

	if got := a.injected(); len(got) != 1 || !strings.Contains(got[0], "in accept") {
		t.Fatalf("a's flight recorder holds %q, want exactly its own accept drop", got)
	}
	if got := b.injected(); len(got) != 1 || !strings.Contains(got[0], "out dial") {
		t.Fatalf("b's flight recorder holds %q, want exactly its own dial drop", got)
	}
}
