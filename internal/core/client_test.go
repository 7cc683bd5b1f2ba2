package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/audit"
	"repro/internal/domain"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// TestClientCarriesTrace: a trace set on the client rides every call to
// the domains, which is how `dtclient -trace` reaches them.
func TestClientCarriesTrace(t *testing.T) {
	got := make(chan obsv.TraceContext, 1)
	srv := transport.NewServer()
	srv.HandleCtx("invoke", func(ctx context.Context, body json.RawMessage) (any, error) {
		got <- obsv.TraceFrom(ctx)
		return domain.InvokeResponse{Response: []byte("ok")}, nil
	})
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(audit.Params{Domains: []audit.DomainInfo{{Name: "d0", Addr: addr}}}, transport.ManagedOptions{})
	defer c.Close()
	tc := obsv.NewTrace()
	c.SetTrace(tc)
	resp, err := c.Invoke(0, []byte("req"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" {
		t.Fatalf("response %q", resp)
	}
	if tr := <-got; tr.TraceID != tc.TraceID {
		t.Fatalf("domain saw trace %x, want %x", tr.TraceID, tc.TraceID)
	}
	if _, err := c.Invoke(1, nil); err == nil {
		t.Fatal("invoke on a domain index out of range succeeded")
	}
}
