package fault_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/framework"
	"repro/internal/obsv"
	"repro/internal/sandbox"
	"repro/internal/tee"
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
	srv.Handle("headbls", func(json.RawMessage) (any, error) { return struct{}{}, nil })
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
	if err := toA.Call("headbls", struct{}{}, nil); err != nil {
		t.Fatalf("call through one dial drop and one accept drop: %v", err)
	}
	if dials, retries, _ := toA.Stats(); dials != 2 || retries != 2 {
		t.Fatalf("b→a: dials=%d retries=%d, want 2 dials and 2 retries", dials, retries)
	}

	// A plain client reaches b untouched: b's only rule is outbound, and
	// a's accept rule belongs to a's listener alone.
	toB := transport.DialManaged(b.addr, transport.ManagedOptions{})
	defer toB.Close()
	if err := toB.Call("headbls", struct{}{}, nil); err != nil {
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

// TestAuditPathDialsThroughInjector: the audit client takes its dialer
// as a value (audit.Client.SetDial), so the audits a process makes — a
// handler's here, core.Deployment.AuditClient's in the examples — are
// partitioned with the rest of that process. A "monitord" node whose
// schedule cuts its outbound side fails a handler's status fetches with
// an injected error and an injected flight event of its own, while the
// same fetches over a plain dialer, against the same domains, succeed.
func TestAuditPathDialsThroughInjector(t *testing.T) {
	cut := func(target string) (*fault.Injector, *obsv.FlightRecorder) {
		inj := fault.Activate(&fault.Schedule{Seed: 1, Rules: []fault.Rule{
			{Kind: fault.KindPartition, Target: target, Dir: fault.DirOut},
		}}, target)
		fr := obsv.NewFlightRecorder(64)
		inj.SetFlightRecorder(fr)
		return inj, fr
	}
	injectedDials := func(fr *obsv.FlightRecorder) (n int) {
		for _, ev := range fr.Events() {
			if ev.Component == "fault" && ev.Kind == "injected" && ev.Detail == "partition out dial" {
				n++
			}
		}
		return n
	}

	// Real trust domains; the deployment's own dialer is partitioned.
	depInj, depFlight := cut("trustdomaind")
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	tk, shares, err := bls.ThresholdKeyGen(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.Deploy(core.Config{
		NumDomains: 2,
		Developer:  dev,
		Vendors:    []*tee.Vendor{vendors[tee.AllVendorIDs()[0]]},
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
		HostsFor: func(i int) map[string]*sandbox.HostFunc {
			return blsapp.Hosts(blsapp.NewShareStateWithKey(shares[i], tk, dev.PublicKey()))
		},
		Dial: depInj.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	params := dep.Params()

	// poll is a handler that fetches every domain's attested status.
	poll := func(c *audit.Client) func(json.RawMessage) (any, error) {
		return func(json.RawMessage) (any, error) {
			for _, d := range params.Domains {
				if _, err := c.FetchStatus(d.Name); err != nil {
					return nil, fmt.Errorf("fetching %s: %w", d.Name, err)
				}
			}
			return len(params.Domains), nil
		}
	}
	monInj, monFlight := cut("monitord")
	plain, partitioned := audit.NewClient(params), audit.NewClient(params)
	defer plain.Close()
	defer partitioned.Close()
	partitioned.SetDial(monInj.Dial)
	srv := transport.NewServer()
	srv.Handle("poll-plain", poll(plain))
	srv.Handle("poll", poll(partitioned))
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var polled int
	if err := c.Call("poll-plain", struct{}{}, &polled); err != nil || polled != 2 {
		t.Fatalf("poll over a plain dialer: %d domains, %v", polled, err)
	}
	err = c.Call("poll", struct{}{}, nil)
	var remote *transport.ErrRemote
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "injected partition dial") {
		t.Fatalf("poll under an outbound partition: %v, want the handler to report an injected dial failure", err)
	}
	if injectedDials(monFlight) == 0 {
		t.Fatalf("monitor's flight recorder holds no injected dial: %+v", monFlight.Events())
	}

	// Deployment.AuditClient dials the way the deployment does.
	ac := dep.AuditClient()
	defer ac.Close()
	if _, err := ac.FetchStatus(params.Domains[0].Name); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Deployment.AuditClient under the deployment's partition: %v, want an injected failure", err)
	}
	if injectedDials(depFlight) == 0 {
		t.Fatalf("deployment's flight recorder holds no injected dial: %+v", depFlight.Events())
	}
}
