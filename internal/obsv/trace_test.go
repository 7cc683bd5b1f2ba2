package obsv

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTrace()
	if !tc.Valid() || !tc.Sampled() {
		t.Fatal("NewTrace must be valid and sampled")
	}
	enc := tc.Encode()
	if len(enc) != EncodedTraceLen {
		t.Fatalf("encoded length = %d, want %d", len(enc), EncodedTraceLen)
	}
	dec, err := DecodeTraceContext(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec != tc {
		t.Fatalf("round trip mismatch: %+v != %+v", dec, tc)
	}

	child := tc.Child()
	if child.TraceID != tc.TraceID || child.Flags != tc.Flags {
		t.Fatal("child must keep trace id and flags")
	}
	if child.SpanID == tc.SpanID {
		t.Fatal("child must mint a fresh span id")
	}
}

func TestDecodeTraceContextRejectsGarbage(t *testing.T) {
	if tc, err := DecodeTraceContext(nil); err != nil || tc.Valid() {
		t.Fatalf("empty input must decode to the zero context, got %+v, %v", tc, err)
	}
	if _, err := DecodeTraceContext(make([]byte, EncodedTraceLen-1)); err == nil {
		t.Fatal("short input must be rejected")
	}
	bad := NewTrace().Encode()
	bad[0] = 99
	if _, err := DecodeTraceContext(bad); err == nil {
		t.Fatal("unknown version must be rejected")
	}
}

func TestTraceContextString(t *testing.T) {
	if s := (TraceContext{}).String(); s != "" {
		t.Fatalf("zero context String() = %q, want empty", s)
	}
	if s := NewTrace().String(); len(s) != 32+1+16 {
		t.Fatalf("String() = %q, want hex traceid-spanid", s)
	}
}

func TestContextPlumbing(t *testing.T) {
	if tc := TraceFrom(nil); tc.Valid() {
		t.Fatal("nil context must carry no trace")
	}
	ctx := context.Background()
	if ContextWithTrace(ctx, TraceContext{}) != ctx {
		t.Fatal("attaching the zero context must be a no-op")
	}
	tc := NewTrace()
	if got := TraceFrom(ContextWithTrace(ctx, tc)); got != tc {
		t.Fatalf("TraceFrom = %+v, want %+v", got, tc)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var sp *Span
	sp.End(errors.New("ignored")) // must not panic
	var tr *Tracer
	ctx, sp2 := tr.Start(context.Background(), "x")
	if ctx == nil || sp2 != nil {
		t.Fatal("nil tracer Start must return (ctx, nil)")
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(2) // every second root sampled
	var sampled int
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), "root")
		if sp != nil {
			sampled++
			sp.End(nil)
		}
	}
	if sampled != 5 {
		t.Fatalf("sampled %d of 10 roots, want 5 at 1-in-2", sampled)
	}

	// A sampled parent forces child sampling regardless of local rate.
	off := NewTracer(0)
	ctx := ContextWithTrace(context.Background(), NewTrace())
	cctx, sp := off.Start(ctx, "child")
	if sp == nil {
		t.Fatal("sampled parent must produce a sampled child span")
	}
	if TraceFrom(cctx).SpanID == TraceFrom(ctx).SpanID {
		t.Fatal("child span must carry its own span id")
	}
	sp.End(nil)

	// An explicit unsampled upstream decision suppresses local sampling.
	always := NewTracer(1)
	un := NewTrace()
	un.Flags = 0
	if _, sp := always.Start(ContextWithTrace(context.Background(), un), "x"); sp != nil {
		t.Fatal("unsampled upstream decision must suppress the span")
	}
}

func TestTracerRingAndCounters(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(1)
	tr.Register(reg)
	n := TraceRingSize + 10
	for i := 0; i < n; i++ {
		_, sp := tr.Start(context.Background(), fmt.Sprintf("op-%d", i))
		if sp == nil {
			t.Fatal("1-in-1 sampling must sample every root")
		}
		sp.End(nil)
	}
	spans := tr.Spans()
	if len(spans) != TraceRingSize {
		t.Fatalf("ring holds %d spans, want %d", len(spans), TraceRingSize)
	}
	// Oldest first: the first retained span is op-10.
	if spans[0].Name != "op-10" || spans[len(spans)-1].Name != fmt.Sprintf("op-%d", n-1) {
		t.Fatalf("ring order wrong: first=%s last=%s", spans[0].Name, spans[len(spans)-1].Name)
	}
	if got := reg.Value("trace_spans_started_total"); got != float64(n) {
		t.Fatalf("trace_spans_started_total = %v, want %d", got, n)
	}
	if got := reg.Value("trace_spans_finished_total"); got != float64(n) {
		t.Fatalf("trace_spans_finished_total = %v, want %d", got, n)
	}
}

func TestSpanRecordsError(t *testing.T) {
	tr := NewTracer(1)
	_, sp := tr.Start(context.Background(), "failing")
	sp.End(errors.New("boom"))
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Err != "boom" {
		t.Fatalf("span error not recorded: %+v", spans)
	}
}

// FuzzTraceHeader pins the decoder's contract on adversarial bytes: it
// never panics, and anything it accepts re-encodes to the same bytes.
func FuzzTraceHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(NewTrace().Encode())
	f.Add(make([]byte, EncodedTraceLen))
	f.Add(make([]byte, EncodedTraceLen+1))
	f.Add([]byte{TraceHeaderVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		tc, err := DecodeTraceContext(b)
		if err != nil {
			return
		}
		if len(b) == 0 {
			if tc.Valid() {
				t.Fatal("empty header decoded to a valid trace")
			}
			return
		}
		if !bytes.Equal(tc.Encode(), b) {
			t.Fatalf("accepted header does not round-trip: %x", b)
		}
	})
}

// TestTracerRingWraparoundRace hammers the span ring with concurrent
// writers well past the wraparound point, asserting no span record is
// duplicated or torn (every record's trace/span/name must agree with
// what one writer produced). Run with -race.
func TestTracerRingWraparoundRace(t *testing.T) {
	tracer := NewTracer(0) // remote-sampled spans only
	const writers = 8
	const perWriter = TraceRingSize // 8x capacity => many wraps
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				tc := NewTrace()
				// The name encodes the trace id: a torn record (name
				// from one span, ids from another) becomes detectable.
				_, sp := tracer.Start(ContextWithTrace(context.Background(), tc), "span-"+hex.EncodeToString(tc.TraceID[:]))
				sp.End(nil)
				if j%64 == 0 {
					tracer.Spans() // concurrent readers while wrapping
				}
			}
		}(wi)
	}
	wg.Wait()
	spans := tracer.Spans()
	if len(spans) != TraceRingSize {
		t.Fatalf("retained %d spans, want the full ring of %d", len(spans), TraceRingSize)
	}
	seen := make(map[string]bool, len(spans))
	for i, sp := range spans {
		if sp.Name != "span-"+sp.Trace {
			t.Fatalf("span %d torn: name %q does not match trace id %q", i, sp.Name, sp.Trace)
		}
		if seen[sp.Span] {
			t.Fatalf("span id %s appears twice in the ring", sp.Span)
		}
		seen[sp.Span] = true
		if sp.Trace == "" || sp.Start.IsZero() {
			t.Fatalf("span %d incomplete: %+v", i, sp)
		}
	}
	if got := tracer.finished.Value(); got != writers*perWriter {
		t.Fatalf("finished = %d, want %d", got, writers*perWriter)
	}
}
