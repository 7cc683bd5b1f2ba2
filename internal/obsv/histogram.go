package obsv

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default histogram layout: factor-of-two upper
// bounds from 250ns to ~16s, in seconds. Factor-2 spacing bounds the
// within-bucket error of interpolated quantiles to 2x, which is enough
// to tell a 3µs cache hit from a 300µs proof computation from a 30ms
// fsync.
var LatencyBuckets = func() []float64 {
	b := make([]float64, 27)
	v := 250e-9
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// SizeBuckets is a power-of-two layout for count-valued histograms
// (batch sizes, fan-outs): 1, 2, 4, ..., 65536.
var SizeBuckets = func() []float64 {
	b := make([]float64, 17)
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram counts observations into fixed buckets. Observe is two
// atomic adds plus a bounded scan over the bucket bounds and never
// allocates; snapshots are lock-free and may be slightly torn between
// count and sum under concurrent writes (fine for monitoring). The
// histogram also tracks the maximum observed value, which bucket counts
// alone cannot recover.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last bucket is overflow (+Inf)
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-add
	maxBits atomic.Uint64 // float64 bits, CAS-max

	// Trace exemplars: a tiny ring of (value, time, trace) triples from
	// sampled observations, linking an SLO breach back to concrete
	// traces on /traces. Only ObserveExemplar with a sampled trace
	// touches it.
	exMu sync.Mutex
	ex   ring[Exemplar]
}

// exemplarRingSize bounds per-histogram exemplar memory; a handful of
// recent outliers is enough to pivot from /slo to /traces.
const exemplarRingSize = 8

// Exemplar is one retained (value, time, trace) observation.
type Exemplar struct {
	Value float64
	Time  time.Time
	Trace TraceContext
}

// NewHistogram creates a histogram with the given upper bounds (must be
// sorted ascending; nil = LatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
		ex:     newRing[Exemplar](exemplarRingSize),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveExemplar records one value and, when tc is a sampled trace,
// retains (v, now, tc) in the exemplar ring. The unsampled path is
// exactly Observe; the sampled path adds one mutex-guarded slot write —
// neither allocates (pinned by TestHotPathAllocs).
func (h *Histogram) ObserveExemplar(v float64, tc TraceContext) {
	h.Observe(v)
	if !tc.Valid() || !tc.Sampled() {
		return
	}
	ex := Exemplar{Value: v, Time: time.Now(), Trace: tc}
	h.exMu.Lock()
	h.ex.push(ex)
	h.exMu.Unlock()
}

// Exemplars returns the retained exemplars, newest first.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	out := h.ex.items()
	h.exMu.Unlock()
	slices.Reverse(out)
	return out
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Overflow returns the number of observations above the top bucket
// bound. A nonzero overflow means the bucket layout is too small for
// the workload and interpolated tail quantiles lean on Max().
func (h *Histogram) Overflow() uint64 { return h.counts[len(h.bounds)].Load() }

// CountAbove returns the number of observations recorded in buckets
// lying entirely above threshold (lower bound >= threshold), plus the
// overflow bucket. Observations sharing a bucket with the threshold are
// not counted — align thresholds to bucket bounds for exact results.
func (h *Histogram) CountAbove(threshold float64) uint64 {
	var n uint64
	for i := range h.counts {
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if lo >= threshold {
			n += h.counts[i].Load()
		}
	}
	return n
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket that contains it. The overflow
// (+Inf) bucket interpolates between the top bound and the tracked
// maximum, so a tail that escaped the bucket layout still moves p999
// instead of clamping to the top bound; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.Max()
			if i < len(h.bounds) {
				hi = h.bounds[i]
			} else if hi < lo {
				return lo // overflow bucket but max lost a race: floor
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns (bucket cumulative counts aligned to bounds plus
// +Inf, count, sum) for exposition.
func (h *Histogram) snapshot() (cums []uint64, count uint64, sum float64) {
	cums = make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cums[i] = cum
	}
	return cums, h.count.Load(), h.Sum()
}
