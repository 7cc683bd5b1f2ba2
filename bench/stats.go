package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// numSlices is how many equal slices a measured window is cut into. Each
// end-to-end figure is computed per slice and the better decile over the
// slices is reported (see quiet).
const numSlices = 20

// sample is one completed operation: when it finished — in an open loop,
// when it was due — as an offset from the window start, and how long it
// took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// quantile returns the q-quantile (nearest rank) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 0.9*100 = 90.00000000000001 at rank 90.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.9}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it, so the reported tail is never a single outlier. It
// returns the percentile (0.99 for p99) and its value; with fewer than a
// hundred samples no percentile qualifies and it falls back to the median.
func tailQuantile(sorted []time.Duration) (float64, time.Duration) {
	n := float64(len(sorted))
	for _, p := range tailPercentiles {
		if n-math.Ceil(p*n-1e-9) >= 10 {
			return p, quantile(sorted, p)
		}
	}
	return 0.5, quantile(sorted, 0.5)
}

func sortedLats(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sliceRates cuts [0, window) into numSlices equal slices and returns the
// completions per second in each.
func sliceRates(samples []sample, window time.Duration) []float64 {
	counts := make([]float64, numSlices)
	width := window / numSlices
	for _, s := range samples {
		if s.at < 0 || s.at >= window {
			continue
		}
		counts[min(int(s.at/width), numSlices-1)]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// sliceMedians cuts [0, window) into numSlices equal slices and returns
// the median latency of each; 0 for a slice that completed nothing.
func sliceMedians(samples []sample, window time.Duration) []float64 {
	lats := make([][]time.Duration, numSlices)
	width := window / numSlices
	for _, s := range samples {
		if s.at < 0 || s.at >= window {
			continue
		}
		i := min(int(s.at/width), numSlices-1)
		lats[i] = append(lats[i], s.lat)
	}
	out := make([]float64, numSlices)
	for i, l := range lats {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		out[i] = float64(quantile(l, 0.5))
	}
	return out
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileF returns the p-quantile of v by the "exclusive" method of
// Python's statistics.quantiles, which is what the acceptance rule for
// run-to-run spread uses: position p*(n+1) in the sorted values, linearly
// interpolated and clamped to the ends.
func quantileF(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)+1)
	i := int(pos)
	switch {
	case i < 1:
		return s[0]
	case i >= len(s):
		return s[len(s)-1]
	}
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}

// quartiles returns statistics.quantiles(v, n=4)'s first and third cut.
func quartiles(v []float64) (q1, q3 float64) {
	return quantileF(v, 0.25), quantileF(v, 0.75)
}

// quiet condenses one figure computed per slice into the value the system
// sustained in the least disturbed tenth of the window: the first decile
// of a cost (latency, CPU per operation), the ninth of a rate. What
// disturbs a run on a shared host — another tenant, the sandbox's own
// tooling, a burst of page reclaim — only ever slows it down, in bursts
// of a few seconds that cluster into episodes of a minute; a median over
// the slices moves as soon as half the window is hit, this figure only
// when nearly all of it is. It sits on the good side of the true median
// by the same margin on every run, so it compares between runs, which is
// all a regression bound needs; stalls the program itself causes show in
// the pooled tail (client.ptail_ms).
func quiet(perSlice []float64, lowerIsBetter bool) float64 {
	switch {
	case len(perSlice) == 0:
		return 0
	case lowerIsBetter:
		return quantileF(perSlice, 0.1)
	}
	return quantileF(perSlice, 0.9)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := medianF(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// schedule is an open-loop send schedule: operation i is due at
// start + i*period regardless of how earlier operations fared.
type schedule struct {
	start  time.Time
	period time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.period) }

// lateness is how far behind its due time an operation was actually
// sent; a generator that keeps up reports zero.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// spans accumulates client-side span durations by name for one worker
// during a traced window. A nil *spans records nothing and reads no
// clock, so the untraced window pays nothing for it.
type spans struct {
	sum map[string]time.Duration
	n   map[string]int
}

func newSpans() *spans {
	return &spans{sum: map[string]time.Duration{}, n: map[string]int{}}
}

func (s *spans) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) end(name string, t0 time.Time) {
	if s == nil {
		return
	}
	s.add(name, time.Since(t0))
}

func (s *spans) add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.sum[name] += d
	s.n[name]++
}

func (s *spans) merge(o *spans) {
	for k, v := range o.sum {
		s.sum[k] += v
		s.n[k] += o.n[k]
	}
}

// mean is the mean duration of one span.
func (s *spans) mean(name string) time.Duration {
	if s.n[name] == 0 {
		return 0
	}
	return s.sum[name] / time.Duration(s.n[name])
}

// perOp is the time a span contributed to the average operation: its
// total divided by the operation count (a span that runs once per
// hundred operations contributes a hundredth of its duration).
func (s *spans) perOp(name string, ops int) time.Duration {
	if ops == 0 {
		return 0
	}
	return s.sum[name] / time.Duration(ops)
}

// budgetRows are the stages of the per-layer latency budget, in order.
// late is an open loop's own queue: how long past its due time an
// operation was sent because earlier ones were still in the way.
var budgetRows = []string{"late", "wire", "server", "fsync", "head_sign", "client_verify", "push_wait"}

// gapThreshold is the residual share above which the budget table names
// an instrumentation gap instead of claiming to explain the operation.
const gapThreshold = 0.15

// budget is one workload's latency budget: how the mean operation time
// divides over the stages, with whatever the stages do not explain kept
// visible as the residual.
type budget struct {
	Mean     time.Duration            `json:"mean_ns"`
	Rows     map[string]time.Duration `json:"rows_ns"`
	Residual time.Duration            `json:"residual_ns"`
}

func newBudget(mean time.Duration, rows map[string]time.Duration) budget {
	b := budget{Mean: mean, Rows: rows, Residual: mean}
	for _, name := range budgetRows {
		b.Residual -= rows[name]
	}
	return b
}

// residualRatio is |residual| as a share of the mean operation time.
func (b budget) residualRatio() float64 {
	if b.Mean == 0 {
		return 0
	}
	return math.Abs(float64(b.Residual)) / float64(b.Mean)
}

// explained is the sum of the stage rows.
func (b budget) explained() time.Duration { return b.Mean - b.Residual }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (b budget) String() string {
	var sb strings.Builder
	row := func(name string, d time.Duration) {
		share := 0.0
		if b.Mean > 0 {
			share = 100 * float64(d) / float64(b.Mean)
		}
		fmt.Fprintf(&sb, "    %-14s %12.1f us %6.1f %%\n", name, us(d), share)
	}
	for _, name := range budgetRows {
		row(name, b.Rows[name])
	}
	row("residual", b.Residual)
	row("mean op", b.Mean)
	if r := b.residualRatio(); r > gapThreshold {
		fmt.Fprintf(&sb, "    INSTRUMENTATION GAP: %.0f %% of the mean operation is outside every measured stage\n", 100*r)
	}
	return sb.String()
}
