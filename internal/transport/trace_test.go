package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"repro/internal/obsv"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hdr := obsv.NewTrace().Encode()
	if err := WriteFrameHeader(&buf, hdr, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	gotHdr, gotPayload, err := ReadFrameHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHdr, hdr) {
		t.Fatalf("header mismatch: got %x want %x", gotHdr, hdr)
	}
	if string(gotPayload) != "payload" {
		t.Fatalf("payload mismatch: %q", gotPayload)
	}
}

func TestHeaderlessFramesByteIdentical(t *testing.T) {
	// A frame written without a header must be indistinguishable on the
	// wire from the pre-header format: old peers see zero difference.
	var classic, viaHeader bytes.Buffer
	payload := []byte(`{"id":1,"kind":"echo"}`)
	if err := WriteFrame(&classic, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameHeader(&viaHeader, nil, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(classic.Bytes(), viaHeader.Bytes()) {
		t.Fatalf("headerless frame differs from classic format:\n%x\n%x",
			classic.Bytes(), viaHeader.Bytes())
	}
	// And the new reader accepts classic frames unchanged.
	hdr, got, err := ReadFrameHeader(&classic)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != nil {
		t.Fatalf("classic frame produced header %x", hdr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

// legacyReadFrame is a copy of the pre-header reader: 4-byte length,
// reject above MaxFrameSize, read payload. Used to prove the fail-safe
// compat story for old peers.
func legacyReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func TestOldPeerCompat(t *testing.T) {
	// Old reader, headerless frame: accepted, byte-for-byte.
	var buf bytes.Buffer
	if err := WriteFrameHeader(&buf, nil, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	got, err := legacyReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "plain" {
		t.Fatalf("legacy reader got %q", got)
	}

	// Old reader, header frame: must fail cleanly with the oversized-frame
	// error (connection close), never misparse the header as a payload.
	buf.Reset()
	if err := WriteFrameHeader(&buf, obsv.NewTrace().Encode(), []byte("traced")); err != nil {
		t.Fatal(err)
	}
	if _, err := legacyReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("legacy reader on header frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameHeaderLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameHeader(&buf, make([]byte, MaxHeaderSize+1), nil); !errors.Is(err, ErrHeaderTooLarge) {
		t.Fatalf("oversized header accepted: %v", err)
	}
	// A header frame announcing a zero-length or oversized header section
	// is rejected before allocation.
	for _, hlen := range []uint32{0, MaxHeaderSize + 1} {
		var hostile [4]byte
		binary.BigEndian.PutUint32(hostile[:], headerMagic<<24|hlen)
		if _, _, err := ReadFrameHeader(bytes.NewReader(hostile[:])); !errors.Is(err, ErrHeaderTooLarge) {
			t.Fatalf("hlen %d accepted: %v", hlen, err)
		}
	}
}

func TestTracePropagatesClientToHandler(t *testing.T) {
	reg := obsv.NewRegistry()
	tracer := obsv.NewTracer(1)
	tracer.Register(reg)
	s := NewServer()
	s.Instrument(reg, tracer)
	seen := make(chan obsv.TraceContext, 8)
	s.HandleCtx("probe", func(ctx context.Context, body json.RawMessage) (any, error) {
		seen <- obsv.TraceFrom(ctx)
		return map[string]bool{"ok": true}, nil
	})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root := obsv.NewTrace()
	if err := c.CallCtx(obsv.ContextWithTrace(context.Background(), root), "probe", nil, nil); err != nil {
		t.Fatal(err)
	}
	got := <-seen
	if !got.Valid() || !got.Sampled() {
		t.Fatalf("handler saw no sampled trace: %+v", got)
	}
	if got.TraceID != root.TraceID {
		t.Fatalf("trace id not propagated: got %x want %x", got.TraceID, root.TraceID)
	}
	if got.SpanID == root.SpanID {
		t.Fatal("server span should be a child, not the root span")
	}
	if n := reg.Value(`rpc_requests_total{kind="probe"}`); n != 1 {
		t.Fatalf("rpc_requests_total{probe} = %v, want 1", n)
	}
	if reg.Value("trace_spans_finished_total") == 0 {
		t.Fatal("no spans recorded")
	}
}

func TestTracePropagatesThroughBatch(t *testing.T) {
	reg := obsv.NewRegistry()
	tracer := obsv.NewTracer(1)
	tracer.Register(reg)
	s := NewServer()
	s.Instrument(reg, tracer)
	seen := make(chan obsv.TraceContext, 8)
	s.HandleCtx("probe", func(ctx context.Context, body json.RawMessage) (any, error) {
		seen <- obsv.TraceFrom(ctx)
		return nil, nil
	})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root := obsv.NewTrace()
	res, err := c.CallBatchCtx(obsv.ContextWithTrace(context.Background(), root), []BatchCall{{Kind: "probe"}, {Kind: "probe"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch call %d: %v", i, r.Err)
		}
		tc := <-seen
		if tc.TraceID != root.TraceID {
			t.Fatalf("batch sub-request %d lost the trace: %+v", i, tc)
		}
	}
	if n := reg.Value(`rpc_requests_total{kind="probe"}`); n != 2 {
		t.Fatalf("rpc_requests_total{probe} = %v, want 2", n)
	}
	if n := reg.Value("rpc_batch_calls_count"); n != 1 {
		t.Fatalf("rpc_batch_calls_count = %v, want 1", n)
	}
}

func TestUntracedCallsStayClassic(t *testing.T) {
	// Without SetTrace, an instrumented client writes classic frames and
	// an uninstrumented (old-style) server handles them as before.
	s := NewServer()
	s.Handle("echo", func(body json.RawMessage) (any, error) {
		var req echoReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text}, nil
	})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var resp echoResp
	if err := c.CallCtx(ctx, "echo", echoReq{Text: "hi", N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hi" {
		t.Fatalf("echo: %q", resp.Text)
	}
}

func TestServerMetricsCountErrors(t *testing.T) {
	reg := obsv.NewRegistry()
	s := NewServer()
	s.Instrument(reg, nil)
	s.Handle("boom", func(json.RawMessage) (any, error) { return nil, errors.New("nope") })
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var remote *ErrRemote
	if err := c.Call("boom", nil, nil); !errors.As(err, &remote) {
		t.Fatalf("want remote error, got %v", err)
	}
	if err := c.Call("missing", nil, nil); !errors.As(err, &remote) {
		t.Fatalf("want remote error, got %v", err)
	}
	if n := reg.Value(`rpc_errors_total{kind="boom"}`); n != 1 {
		t.Fatalf("rpc_errors_total{boom} = %v", n)
	}
	// A kind nobody registered is the peer's string, not a label.
	if n := reg.Value(`rpc_errors_total{kind="_unknown"}`); n != 1 {
		t.Fatalf("rpc_errors_total{_unknown} = %v", n)
	}
	if n := reg.Value("rpc_rx_bytes_total"); n == 0 {
		t.Fatal("rx bytes not counted")
	}
	if n := reg.Value("rpc_tx_bytes_total"); n == 0 {
		t.Fatal("tx bytes not counted")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`rpc_requests_total{kind="boom"} 1`)) {
		t.Fatalf("exposition missing series:\n%s", buf.Bytes())
	}
}

// FuzzFrameHeader feeds arbitrary bytes to the frame reader: it must
// never panic, never allocate beyond the caps, and must hand back any
// header section it accepts without corruption when re-framed.
func FuzzFrameHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte{0xEE, 0, 0, 26}, obsv.NewTrace().Encode()...))
	var seed bytes.Buffer
	WriteFrameHeader(&seed, obsv.NewTrace().Encode(), []byte("x"))
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, payload, err := ReadFrameHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(hdr) > MaxHeaderSize || len(payload) > MaxFrameSize {
			t.Fatalf("caps violated: hdr %d payload %d", len(hdr), len(payload))
		}
		var buf bytes.Buffer
		if err := WriteFrameHeader(&buf, hdr, payload); err != nil {
			t.Fatalf("re-framing accepted frame: %v", err)
		}
		hdr2, payload2, err := ReadFrameHeader(&buf)
		if err != nil {
			t.Fatalf("re-reading re-framed frame: %v", err)
		}
		if !bytes.Equal(hdr, hdr2) || !bytes.Equal(payload, payload2) {
			t.Fatal("frame corrupted through write/read cycle")
		}
	})
}
