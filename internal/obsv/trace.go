package obsv

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. A TraceContext is a (trace id, span id, flags)
// triple small enough to ride in the transport's optional frame header
// (see transport.WriteFrameHeader): when a dtclient audit is sampled,
// the same 16-byte trace id appears on the client's span, the
// monitord RPC server's span, the serve tier's compute span, and every
// slog line those components emit while the span is active — one
// audit, followable across daemons with grep.
//
// Sampling is decided once at the root and propagated: a sampled parent
// means sampled children, an unsampled request does no tracing work.

// TraceHeaderVersion is the wire version of the encoded context.
const TraceHeaderVersion = 1

// EncodedTraceLen is the exact encoded size: version(1) + trace(16) +
// span(8) + flags(1).
const EncodedTraceLen = 26

// FlagSampled marks a trace whose spans are recorded.
const FlagSampled = 0x01

// TraceContext identifies one request tree (TraceID) and one hop in it
// (SpanID). The zero value means "no trace".
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   uint8
}

// Valid reports whether a trace is present (nonzero trace id).
func (tc TraceContext) Valid() bool { return tc.TraceID != [16]byte{} }

// Sampled reports whether spans of this trace are recorded.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// NewTrace mints a sampled root context with random trace and span ids.
func NewTrace() TraceContext {
	var tc TraceContext
	if _, err := rand.Read(tc.TraceID[:]); err != nil {
		panic("obsv: rand: " + err.Error())
	}
	if _, err := rand.Read(tc.SpanID[:]); err != nil {
		panic("obsv: rand: " + err.Error())
	}
	tc.Flags = FlagSampled
	return tc
}

// Child derives a context for the next hop: same trace id and flags,
// fresh span id.
func (tc TraceContext) Child() TraceContext {
	child := tc
	if _, err := rand.Read(child.SpanID[:]); err != nil {
		panic("obsv: rand: " + err.Error())
	}
	return child
}

// Encode serializes the context for the frame header.
func (tc TraceContext) Encode() []byte {
	b := make([]byte, EncodedTraceLen)
	b[0] = TraceHeaderVersion
	copy(b[1:17], tc.TraceID[:])
	copy(b[17:25], tc.SpanID[:])
	b[25] = tc.Flags
	return b
}

// ErrBadTraceHeader is returned for malformed trace header bytes.
var ErrBadTraceHeader = errors.New("obsv: malformed trace header")

// DecodeTraceContext parses frame-header bytes. Empty input is not an
// error — it decodes to the zero ("no trace") context, which is what an
// un-traced frame carries. Unknown versions and wrong lengths are
// rejected so a corrupted header can never be mistaken for a trace.
func DecodeTraceContext(b []byte) (TraceContext, error) {
	var tc TraceContext
	if len(b) == 0 {
		return tc, nil
	}
	if len(b) != EncodedTraceLen {
		return tc, fmt.Errorf("%w: %d bytes", ErrBadTraceHeader, len(b))
	}
	if b[0] != TraceHeaderVersion {
		return tc, fmt.Errorf("%w: version %d", ErrBadTraceHeader, b[0])
	}
	copy(tc.TraceID[:], b[1:17])
	copy(tc.SpanID[:], b[17:25])
	tc.Flags = b[25]
	return tc, nil
}

// String renders "traceid-spanid" in hex (empty for the zero context).
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	return hex.EncodeToString(tc.TraceID[:]) + "-" + hex.EncodeToString(tc.SpanID[:])
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace context to a Go context.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the trace context (zero when absent).
func TraceFrom(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}

// SpanRecord is one finished span, as exposed on /traces.
type SpanRecord struct {
	Trace    string        `json:"trace"`
	Span     string        `json:"span"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// Tracer starts spans and keeps a bounded ring of the most recent
// finished ones. New roots are head-sampled 1-in-SampleEvery; requests
// arriving with a remote decision keep it (so one sampled client audit
// is recorded at every daemon it touches, regardless of local rates).
type Tracer struct {
	sampleEvery uint64
	seq         atomic.Uint64
	started     Counter
	finished    Counter

	logger atomic.Pointer[slog.Logger]

	mu   sync.Mutex
	ring ring[SpanRecord]
}

// TraceRingSize is how many finished spans a tracer retains.
const TraceRingSize = 256

// NewTracer creates a tracer sampling one in every sampleEvery new
// roots (sampleEvery <= 0 disables local root sampling; remotely
// sampled requests are still recorded).
func NewTracer(sampleEvery int) *Tracer {
	t := &Tracer{ring: newRing[SpanRecord](TraceRingSize)}
	if sampleEvery > 0 {
		t.sampleEvery = uint64(sampleEvery)
	}
	return t
}

// SetLogger makes the tracer emit one debug line per finished span
// (with trace/span ids), tying traces into the structured logs.
func (t *Tracer) SetLogger(l *slog.Logger) { t.logger.Store(l) }

// Register exposes the tracer's own counters on a registry.
func (t *Tracer) Register(reg *Registry) {
	reg.Register("trace_spans_started_total", "sampled spans started", CounterFunc(t.started.Value))
	reg.Register("trace_spans_finished_total", "sampled spans finished", CounterFunc(t.finished.Value))
}

// Span is one in-flight operation of a sampled trace. A nil *Span is
// the unsampled case and every method is a no-op on it, so call sites
// need no branches.
type Span struct {
	t     *Tracer
	tc    TraceContext
	name  string
	start time.Time
}

// Start begins a span under the context's trace. For a context with no
// trace, the tracer's root sampler decides; for an unsampled trace it
// returns (ctx, nil). The returned context carries the span's own
// TraceContext for propagation to children and downstream RPCs.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent := TraceFrom(ctx)
	var tc TraceContext
	switch {
	case parent.Valid() && parent.Sampled():
		tc = parent.Child()
	case parent.Valid():
		return ctx, nil // explicit unsampled decision from upstream
	default:
		if t.sampleEvery == 0 || t.seq.Add(1)%t.sampleEvery != 0 {
			return ctx, nil
		}
		tc = NewTrace()
	}
	t.started.Inc()
	sp := &Span{t: t, tc: tc, name: name, start: time.Now()}
	return ContextWithTrace(ctx, tc), sp
}

// End finishes the span, recording its duration and outcome.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	rec := SpanRecord{
		Trace:    hex.EncodeToString(s.tc.TraceID[:]),
		Span:     hex.EncodeToString(s.tc.SpanID[:]),
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	t := s.t
	t.finished.Inc()
	t.mu.Lock()
	t.ring.push(rec)
	t.mu.Unlock()
	if l := t.logger.Load(); l != nil {
		l.Debug("span", "trace_id", rec.Trace, "span_id", rec.Span, "span_name", rec.Name,
			"duration", rec.Duration, "err", rec.Err)
	}
}

// Spans returns the retained finished spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.items()
}
