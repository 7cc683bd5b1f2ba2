package audit

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// wantOneCleanDial asserts the managed endpoint behind addr dialed once
// and never retried or shed a call — what a raw connection would have
// done on a fault-free link.
func wantOneCleanDial(t *testing.T, c *Client, addr string) {
	t.Helper()
	c.mu.Lock()
	m := c.endpoints[addr]
	c.mu.Unlock()
	if m == nil {
		t.Fatalf("no endpoint for %s", addr)
	}
	if dials, retries, rejected := m.Stats(); dials != 1 || retries != 0 || rejected != 0 {
		t.Fatalf("%s: dials=%d retries=%d rejected=%d, want 1/0/0", addr, dials, retries, rejected)
	}
}

// TestManagedAuditMatchesRawClient is the differential check for the
// domain path: on a fault-free link, Audit() over managed endpoints
// reports exactly what raw single-connection RPCs fetch and verify, with
// one dial per domain and no retries across two audits.
func TestManagedAuditMatchesRawClient(t *testing.T) {
	td := newTestDeployment(t)
	td.push(t, 2)

	type view struct {
		status  framework.Status
		records [][]byte
	}
	raw := make([]view, len(td.params.Domains))
	for i, info := range td.params.Domains {
		conn, err := transport.Dial(info.Addr)
		if err != nil {
			t.Fatal(err)
		}
		nonce, err := newNonce()
		if err != nil {
			t.Fatal(err)
		}
		st := AttestedStatusEnvelope{Nonce: nonce}
		if err := conn.Call("status", domain.StatusRequest{Nonce: nonce}, &st.Resp); err != nil {
			t.Fatal(err)
		}
		if err := VerifyStatusEnvelope(&td.params, &st); err != nil {
			t.Fatal(err)
		}
		hist := AttestedHistoryEnvelope{Nonce: nonce}
		if err := conn.Call("history", domain.HistoryRequest{Nonce: nonce}, &hist.Resp); err != nil {
			t.Fatal(err)
		}
		if err := VerifyHistoryEnvelope(&td.params, &hist); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		raw[i] = view{status: st.Resp.Status, records: hist.Resp.Records}
	}

	c := NewClient(td.params)
	defer c.Close()
	for round := 0; round < 2; round++ { // the second audit rides the history cache
		report, err := c.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if !report.Consistent || len(report.Domains) != len(raw) {
			t.Fatalf("round %d: consistent=%v domains=%d findings=%v", round, report.Consistent, len(report.Domains), report.Findings)
		}
		for i, da := range report.Domains {
			got, want := da.Status.Resp.Status, raw[i].status
			got.Counter, want.Counter = 0, 0 // advances with every attested read
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: %s status = %+v, raw client saw %+v", round, da.Info.Name, got, want)
			}
			if len(da.Records) != len(raw[i].records) {
				t.Fatalf("round %d: %s has %d records, raw client saw %d", round, da.Info.Name, len(da.Records), len(raw[i].records))
			}
			for j, rawRec := range raw[i].records {
				want, err := framework.DecodeRecord(rawRec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(da.Records[j], want) {
					t.Fatalf("round %d: %s record %d differs from the raw client's", round, da.Info.Name, j)
				}
			}
		}
	}
	for _, info := range td.params.Domains {
		wantOneCleanDial(t, c, info.Addr)
	}
}

// TestManagedPollinateMatchesRawClient is the same differential for the
// witness path.
func TestManagedPollinateMatchesRawClient(t *testing.T) {
	f := newWitnessFixture(t, 3, 2)
	h := f.grow(t, 5)
	seen := []gossip.GossipHead{{Source: "mon", Head: h}}

	got, err := f.client.Pollinate(f.set, seen)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(f.set.Witnesses) {
		t.Fatalf("%d of %d witnesses answered", len(got), len(f.set.Witnesses))
	}
	// Pollination is a monotone merge: replaying it over a raw connection
	// must yield the frontier the managed call got.
	msg := &gossip.HeadsMessage{From: "audit-client", Heads: seen}
	for i, w := range f.set.Witnesses {
		conn, err := transport.Dial(w.Addr)
		if err != nil {
			t.Fatal(err)
		}
		var want gossip.HeadsResponse
		err = conn.Call(gossip.KindPollinate, msg, &want)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got[i], want) {
			t.Fatalf("witness %s: managed response differs from the raw client's", w.Name)
		}
		wantOneCleanDial(t, f.client, w.Addr)
	}
}

// TestClientNeverResendsInvoke: a reset after the request was written
// must surface as an error with the wire showing exactly one invoke —
// the server may have executed it. The next call redials.
func TestClientNeverResendsInvoke(t *testing.T) {
	for _, kind := range []string{"invoke", "invokebatch"} {
		srv := startDropThenErrServer(t)
		addr := srv.ln.Addr().String()
		c := NewClient(Params{})
		defer c.Close()

		if err := c.call(addr, kind, struct{}{}, nil); err == nil {
			t.Fatalf("%s across a post-send reset returned nil", kind)
		}
		if kinds := srv.seenKinds(); len(kinds) != 1 || kinds[0] != kind {
			t.Fatalf("server read %v, want exactly one %s", kinds, kind)
		}
		// The broken connection is gone: the next call reaches the server
		// on a fresh one (which answers with its remote refusal).
		err := c.call(addr, kind, struct{}{}, nil)
		var remote *transport.ErrRemote
		if !errors.As(err, &remote) {
			t.Fatalf("%s after the reset = %v, want the server's answer over a new connection", kind, err)
		}
	}
}

// TestClientCallCarriesTraceAndDeadline: the client's trace rides every
// RPC's frame header and its call timeout bounds a call to a server
// that never answers.
func TestClientCallCarriesTraceAndDeadline(t *testing.T) {
	srv := transport.NewServer()
	seen := make(chan obsv.TraceContext, 1)
	release := make(chan struct{})
	srv.HandleCtx("status", func(ctx context.Context, _ json.RawMessage) (any, error) {
		seen <- obsv.TraceFrom(ctx)
		return struct{}{}, nil
	})
	srv.Handle("history", func(json.RawMessage) (any, error) {
		<-release
		return struct{}{}, nil
	})
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)

	c := NewClient(Params{})
	defer c.Close()
	root := obsv.NewTrace()
	c.SetTrace(root)
	if err := c.call(addr, "status", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if tc := <-seen; tc.TraceID != root.TraceID {
		t.Fatalf("server saw trace %x, want the client's %x", tc.TraceID, root.TraceID)
	}

	c.SetCallTimeout(100 * time.Millisecond)
	start := time.Now()
	if err := c.call(addr, "history", struct{}{}, nil); err == nil {
		t.Fatal("call to a mute handler returned nil")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("call timeout of 100ms took %v", d)
	}
}
