package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
)

// Batched RPC: a built-in request kind whose body is a list of ordinary
// sub-requests, dispatched in order, with a list of ordinary sub-responses
// as the reply. Every Server accepts batches for all of its registered
// handlers — daemons get batched append/verify RPCs for free — and one
// batch costs one frame and one network round trip instead of N. Per-call
// failures are reported per entry; a malformed batch envelope fails as a
// whole, and batches do not nest.

// BatchKind is the reserved request kind carrying a batch of sub-requests.
const BatchKind = "_batch"

// MaxBatchCalls caps the sub-requests per batch so one frame cannot queue
// unbounded handler work.
const MaxBatchCalls = 4096

// maxKeptBatch is the largest batch whose sub-request and reply slices a
// connection keeps for its next batch.
const maxKeptBatch = 64

// BatchCall is one sub-request in a client-side batch.
type BatchCall struct {
	Kind string
	In   any
}

// BatchResult is one sub-response. Err is nil on success; Decode unpacks
// the body.
type BatchResult struct {
	Err    error
	kind   string // the call's kind, for Decode's errors
	body   []byte
	binary bool // body is the result's binary form
}

// Decode unpacks a successful result's body into out (nil to discard).
func (r *BatchResult) Decode(out any) error {
	if r.Err != nil {
		return r.Err
	}
	if err := decodeBody(r.kind, r.body, r.binary, out); err != nil {
		return fmt.Errorf("transport: decoding batch result: %w", err)
	}
	return nil
}

// dispatchBatch unpacks a batch's container and runs each sub-request
// through the ordinary dispatch path (so per-kind metrics and spans cover
// batched sub-requests too, under the same trace as the enclosing frame);
// the sub-responses go back as a container.
func (s *Server) dispatchBatch(ctx context.Context, req *Request, enc *replyEncoding, obs *serverObs, resp *Response) {
	subs, err := parseSubRequests(enc.subs, req.Body)
	if err != nil {
		*resp = Response{ID: req.ID, OK: false, Error: fmt.Sprintf("malformed batch body: %v", err)}
		return
	}
	if obs != nil {
		obs.batchSize.Observe(float64(len(subs)))
	}
	resps := slices.Grow(enc.resps[:0], len(subs))[:len(subs)]
	// Kept for the next batch on this connection unless oversized, like
	// its frame buffers, and emptied so they do not hold this frame and
	// these bodies until then.
	defer func() {
		if len(subs) <= maxKeptBatch {
			clear(subs)
			clear(resps)
			enc.subs, enc.resps = subs, resps
		}
	}()
	for i := range subs {
		_, r := s.lookup(subs[i].Kind)
		if subs[i].Kind == BatchKind || r.noBatch {
			resps[i] = Response{ID: subs[i].ID, OK: false, Error: fmt.Sprintf("kind %q not allowed inside a batch", subs[i].Kind)}
			continue
		}
		s.run(ctx, &subs[i], nil, enc, obs, r, &resps[i])
	}
	start := len(enc.scratch)
	b := binary.AppendUvarint(enc.scratch, uint64(len(resps)))
	for i := range resps {
		b = appendEntry(b, resps[i].flags(), "", resps[i].Error, resps[i].Body)
	}
	enc.scratch = b
	*resp = Response{ID: req.ID, OK: true, Body: b[start:len(b):len(b)], container: true}
}

// checkBatchLen rejects, before sending, a batch no server would run.
func checkBatchLen(n int) error {
	if n == 0 || n > MaxBatchCalls {
		return fmt.Errorf("transport: batch of %d calls, want 1 to %d", n, MaxBatchCalls)
	}
	return nil
}

// CallBatch is CallBatchCtx under the background context.
func (c *Client) CallBatch(calls []BatchCall) ([]BatchResult, error) {
	return c.CallBatchCtx(context.Background(), calls)
}

// CallBatchCtx sends all calls in one frame, bounded by ctx, and returns
// one result per call, in order. The returned error covers envelope-level
// failures only; inspect each BatchResult.Err for per-call outcomes.
func (c *Client) CallBatchCtx(ctx context.Context, calls []BatchCall) ([]BatchResult, error) {
	if err := checkBatchLen(len(calls)); err != nil {
		return nil, err
	}
	// The bodies are appended side by side to one buffer; each keeps the
	// array it was written to when the buffer grows.
	var scratch []byte
	subs := make([]Request, len(calls))
	for i, call := range calls {
		start := len(scratch)
		var err error
		if scratch, err = appendRequestBody(scratch, call.In); err != nil {
			return nil, fmt.Errorf("transport: encoding batch call %d: %w", i, err)
		}
		subs[i] = Request{ID: uint64(i + 1), Kind: call.Kind, Body: scratch[start:len(scratch):len(scratch)]}
	}
	env, err := c.roundTrip(ctx, BatchKind, appendSubRequests(nil, subs))
	if err != nil {
		return nil, err
	}
	if !env.batch {
		return nil, fmt.Errorf("transport: decoding response body: %w: the batch reply is not a container", errMalformedV2)
	}
	entries, err := parseContainer(env.Body)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding response body: %w", err)
	}
	if len(entries) != len(calls) {
		return nil, fmt.Errorf("transport: batch returned %d results for %d calls", len(entries), len(calls))
	}
	results := make([]BatchResult, len(calls))
	for i, e := range entries {
		switch {
		case e.flags&flagReply == 0:
			return nil, fmt.Errorf("transport: decoding response body: %w: entry %d is not a reply", errMalformedV2, i)
		case e.flags&flagError != 0:
			results[i].Err = &ErrRemote{Msg: e.errMsg}
		default:
			results[i] = BatchResult{kind: calls[i].Kind, body: e.body, binary: e.flags&flagBinary != 0}
		}
	}
	return results, nil
}
