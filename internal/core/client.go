package core

import (
	"context"
	"fmt"

	"repro/internal/audit"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// Client is the client half of a deployment: one managed connection per
// trust domain, each dialed on first use, over which it invokes the
// application and pushes developer-signed updates. A Deployment embeds
// the one it talks to its own domains with; dtclient builds one from the
// parameters file. It satisfies blsapp.BatchInvoker.
type Client struct {
	params audit.Params
	conns  []*transport.ManagedClient // conns[i] reaches params.Domains[i]
	ctx    context.Context            // every call's context: carries SetTrace's trace
}

// NewClient creates a client for the deployment params describes, with
// opts applied to every domain's connection. Nothing is dialed until the
// first call.
func NewClient(params audit.Params, opts transport.ManagedOptions) *Client {
	c := &Client{params: params, ctx: context.Background()}
	for _, d := range params.Domains {
		c.conns = append(c.conns, transport.DialManaged(d.Addr, opts))
	}
	return c
}

// SetTrace makes every RPC the client issues carry tc. Call it before
// the client is shared between goroutines.
func (c *Client) SetTrace(tc obsv.TraceContext) {
	c.ctx = obsv.ContextWithTrace(context.Background(), tc)
}

// Params returns the deployment's public verification parameters.
func (c *Client) Params() audit.Params { return c.params }

// NumDomains returns the number of trust domains.
func (c *Client) NumDomains() int { return len(c.conns) }

func (c *Client) call(i int, kind string, in, out any) error {
	if i < 0 || i >= len(c.conns) {
		return fmt.Errorf("core: domain index %d out of range", i)
	}
	return c.conns[i].CallCtx(c.ctx, kind, in, out)
}

// Invoke sends an application request to domain i over the network path
// (through the host proxy and in-enclave socket for TEE domains).
func (c *Client) Invoke(i int, request []byte) ([]byte, error) {
	var resp domain.InvokeResponse
	if err := c.call(i, "invoke", domain.InvokeRequest{Request: request}, &resp); err != nil {
		return nil, err
	}
	return resp.Response, nil
}

// InvokeBatch sends many application requests to domain i in one RPC
// frame. The slice is positional: result j answers requests[j], and a
// per-request failure surfaces as a nil entry with its error text in errs.
func (c *Client) InvokeBatch(i int, requests [][]byte) ([][]byte, []string, error) {
	var resp domain.InvokeBatchResponse
	if err := c.call(i, "invokebatch", domain.InvokeBatchRequest{Requests: requests}, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Responses) != len(requests) {
		return nil, nil, fmt.Errorf("core: domain %d answered %d of %d batch requests", i, len(resp.Responses), len(requests))
	}
	return resp.Responses, resp.Errors, nil
}

// PushUpdateTo updates a single domain; stageOnly leaves it pending.
func (c *Client) PushUpdateTo(i int, su framework.SignedUpdate, stageOnly bool) error {
	req := domain.UpdateRequest{
		Version:     su.Version,
		ModuleBytes: su.ModuleBytes,
		DevSig:      su.DevSig,
		StageOnly:   stageOnly,
	}
	if err := c.call(i, "update", req, nil); err != nil {
		return fmt.Errorf("core: updating domain %d: %w", i, err)
	}
	return nil
}

// Close releases every domain connection.
func (c *Client) Close() {
	for _, m := range c.conns {
		m.Close()
	}
}
