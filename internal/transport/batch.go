package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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
	binary bool // body is the result's binary form (wire v2 only)
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

// dispatchBatch unpacks a batch envelope and runs each sub-request through
// the ordinary dispatch path (so per-kind metrics and spans cover batched
// sub-requests too, under the same trace as the enclosing frame). The
// sub-requests are a container when the request came in wire v2 and a
// JSON list otherwise; the sub-responses are a container when the reply
// leaves in v2. The two differ on the exchange that carries the offer.
func (s *Server) dispatchBatch(ctx context.Context, req *Request, enc *replyEncoding) *Response {
	var subs []Request
	var err error
	if req.container {
		subs, err = parseSubRequests(req.Body)
	} else {
		err = json.Unmarshal(req.Body, &subs)
	}
	if err != nil {
		return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("malformed batch body: %v", err)}
	}
	if len(subs) > MaxBatchCalls {
		return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("batch of %d exceeds limit %d", len(subs), MaxBatchCalls)}
	}
	if obs := s.observability(); obs != nil {
		obs.batchSize.Observe(float64(len(subs)))
	}
	resps := make([]Response, len(subs))
	for i := range subs {
		if subs[i].Kind == BatchKind || s.isNoBatch(subs[i].Kind) {
			resps[i] = Response{ID: subs[i].ID, OK: false, Error: fmt.Sprintf("kind %q not allowed inside a batch", subs[i].Kind)}
			continue
		}
		resps[i] = *s.dispatchConn(ctx, &subs[i], nil, enc)
	}
	if enc.v2 {
		start := len(enc.scratch)
		b := binary.AppendUvarint(enc.scratch, uint64(len(resps)))
		for i := range resps {
			b = appendEntry(b, resps[i].flags(), "", resps[i].Error, resps[i].Body)
		}
		enc.scratch = b
		return &Response{ID: req.ID, OK: true, Body: b[start:len(b):len(b)], container: true}
	}
	body, err := json.Marshal(resps)
	if err != nil {
		return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("encoding batch response: %v", err)}
	}
	return &Response{ID: req.ID, OK: true, Body: body}
}

// CallBatch sends all calls in one frame and returns one result per call,
// in order. The returned error covers envelope-level failures only;
// inspect each BatchResult.Err for per-call outcomes.
func (c *Client) CallBatch(calls []BatchCall) ([]BatchResult, error) {
	if len(calls) == 0 {
		return nil, errors.New("transport: empty batch")
	}
	if len(calls) > MaxBatchCalls {
		return nil, fmt.Errorf("transport: batch of %d exceeds limit %d", len(calls), MaxBatchCalls)
	}
	subs := make([]Request, len(calls))
	for i, call := range calls {
		body, err := json.Marshal(call.In)
		if err != nil {
			return nil, fmt.Errorf("transport: encoding batch call %d: %w", i, err)
		}
		subs[i] = Request{ID: uint64(i + 1), Kind: call.Kind, Body: body}
	}
	v2 := c.v2.Load()
	var body []byte
	if v2 {
		body = appendSubRequests(nil, subs)
	} else {
		var err error
		if body, err = json.Marshal(subs); err != nil {
			return nil, fmt.Errorf("transport: encoding request: %w", err)
		}
	}
	env, err := c.roundTrip(context.Background(), BatchKind, body, v2)
	if err != nil {
		return nil, err
	}
	// The reply's format is the server's choice, not the request's: the
	// exchange that carried the offer is answered in v2.
	var entries []entry
	var resps []Response
	if env.batch {
		entries, err = parseContainer(env.Body)
	} else {
		err = json.Unmarshal(env.Body, &resps)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: decoding response body: %w", err)
	}
	if n := len(entries) + len(resps); n != len(calls) {
		return nil, fmt.Errorf("transport: batch returned %d results for %d calls", n, len(calls))
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
	for i := range resps {
		switch {
		case resps[i].ID != uint64(i+1):
			return nil, errors.New("transport: batch response ID mismatch")
		case !resps[i].OK:
			results[i].Err = &ErrRemote{Msg: resps[i].Error}
		default:
			results[i] = BatchResult{kind: calls[i].Kind, body: resps[i].Body}
		}
	}
	return results, nil
}
