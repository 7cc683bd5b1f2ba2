package obsv

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 105 {
		t.Fatalf("sum = %v, want 105", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	cums, count, sum := h.snapshot()
	want := []uint64{1, 2, 3, 4} // le=1, le=2, le=4, +Inf (cumulative)
	for i, c := range cums {
		if c != want[i] {
			t.Fatalf("cumulative bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if count != 4 || sum != 105 {
		t.Fatalf("snapshot count/sum = %d/%v, want 4/105", count, sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations uniformly inside (1, 2].
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 2 {
		t.Fatalf("p50 = %v, want inside the (1,2] bucket", p50)
	}
	// Interpolation: rank 50 of 100 in a bucket spanning [1,2] is 1.5.
	if math.Abs(p50-1.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 1.5 by linear interpolation", p50)
	}

	// Values beyond the last bound land in the overflow bucket; tail
	// quantiles interpolate toward the tracked max instead of clamping
	// to the top bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got <= 1 || got > 50 {
		t.Fatalf("overflow-bucket quantile = %v, want in (1, 50]", got)
	}
}

// TestHistogramOverflow is the regression for the silent-clamp bug:
// observations above the top bound must be visible as _overflow in
// both expositions, and p999 must not report the top bound as if the
// tail fit the layout.
func TestHistogramOverflow(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramBuckets("clip_seconds", "t", []float64{1, 2})
	h.Observe(0.5)
	for i := 0; i < 99; i++ {
		h.Observe(100)
	}
	if got := h.Overflow(); got != 99 {
		t.Fatalf("Overflow() = %d, want 99", got)
	}
	snap := reg.Snapshot()
	if got := snap["clip_seconds_overflow"]; got != 99 {
		t.Fatalf("snapshot _overflow = %v, want 99", got)
	}
	// p999 sits deep inside the overflow bucket: it must exceed the top
	// bound (the old behavior clamped it to 2).
	if got := snap["clip_seconds_p999"]; got <= 2 || got > 100 {
		t.Fatalf("p999 with overflow = %v, want in (2, 100]", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "clip_seconds_overflow 99") {
		t.Fatalf("prometheus exposition missing overflow series:\n%s", b.String())
	}

	// Labeled histograms carry the overflow per label value.
	hv := reg.HistogramVec("clipv_seconds", "t", "kind", []float64{1})
	hv.With("a").Observe(9)
	snap = reg.Snapshot()
	if got := snap[`clipv_seconds{kind="a"}_overflow`]; got != 1 {
		t.Fatalf(`labeled _overflow = %v, want 1`, got)
	}
	b.Reset()
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `clipv_seconds_overflow{kind="a"} 1`) {
		t.Fatalf("prometheus labeled overflow missing:\n%s", b.String())
	}
}

// CountAbove feeds SLO burn computation: buckets entirely above the
// threshold plus overflow.
func TestHistogramCountAbove(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(0.5) // (0,1]
	h.Observe(1.5) // (1,2]
	h.Observe(3)   // (2,4]
	h.Observe(100) // overflow
	if got := h.CountAbove(2); got != 2 {
		t.Fatalf("CountAbove(2) = %d, want 2 (the (2,4] bucket + overflow)", got)
	}
	if got := h.CountAbove(1); got != 3 {
		t.Fatalf("CountAbove(1) = %d, want 3", got)
	}
	if got := h.CountAbove(0); got != 4 {
		t.Fatalf("CountAbove(0) = %d, want 4", got)
	}
}

// Exemplars: sampled observations are retained (value, time, trace),
// unsampled ones leave no residue; the ring keeps the newest.
func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.ObserveExemplar(0.5, TraceContext{}) // no trace: plain observe
	if got := h.Exemplars(); len(got) != 0 {
		t.Fatalf("exemplars after untraced observe = %d, want 0", len(got))
	}
	var traces []TraceContext
	for i := 0; i < exemplarRingSize+3; i++ {
		tc := NewTrace()
		traces = append(traces, tc)
		h.ObserveExemplar(float64(i), tc)
	}
	ex := h.Exemplars()
	if len(ex) != exemplarRingSize {
		t.Fatalf("exemplar count = %d, want %d", len(ex), exemplarRingSize)
	}
	// Newest first: the last observation leads.
	if ex[0].Value != float64(exemplarRingSize+2) {
		t.Fatalf("newest exemplar value = %v, want %v", ex[0].Value, exemplarRingSize+2)
	}
	if ex[0].Trace != traces[len(traces)-1] {
		t.Fatalf("newest exemplar trace mismatch")
	}
	if h.Count() != uint64(exemplarRingSize+4) {
		t.Fatalf("count = %d, want %d", h.Count(), exemplarRingSize+4)
	}
}

func TestHistogramDurationHelpers(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(2 * time.Millisecond)
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if h.Sum() < 0.004 || h.Sum() > 1 {
		t.Fatalf("sum = %v, want a few milliseconds", h.Sum())
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	mustPanic(t, "non-ascending bounds", func() { NewHistogram([]float64{1, 1}) })
}

func TestDefaultBucketLayouts(t *testing.T) {
	if LatencyBuckets[0] != 250e-9 {
		t.Fatalf("LatencyBuckets[0] = %v, want 250ns", LatencyBuckets[0])
	}
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] != LatencyBuckets[i-1]*2 {
			t.Fatalf("LatencyBuckets not factor-2 at %d", i)
		}
	}
	if SizeBuckets[0] != 1 || SizeBuckets[len(SizeBuckets)-1] != 65536 {
		t.Fatalf("SizeBuckets span = [%v, %v], want [1, 65536]",
			SizeBuckets[0], SizeBuckets[len(SizeBuckets)-1])
	}
}
