// Package obsv is the zero-dependency telemetry layer shared by every
// daemon in the deployment: a named registry of lock-cheap counters,
// gauges, and fixed-bucket histograms with Prometheus-text and JSON
// exposition; lightweight sampled request tracing whose context rides
// inside the transport's frame header (see internal/transport); health
// and readiness surfaces; and a slog handler that stamps every log line
// with the active trace.
//
// The paper's trust infrastructure is only trustworthy in operation if
// its behavior is observable in operation: a serving tier that poisons
// itself fail-closed (internal/serve) must *show* that state, not just
// refuse quietly. obsv is how fail-closed becomes visible — the serve
// tier exports `serve_poisoned` as a gauge and the daemons flip /readyz
// unhealthy off the same signal.
//
// Hot-path discipline: a Counter.Inc is one atomic add, a
// Histogram.Observe is two atomic adds plus a bounded bucket scan, and
// neither allocates (pinned by TestHotPathAllocs). Tracing is sampled;
// an unsampled request does no tracing work at all. Nothing in this
// package imports anything outside the standard library.
//
// obsv starts no timers and handles no signals. Its periodic engines —
// the SLO burn engine and the watchdog set — advance only when their
// caller calls Tick(now), so a test drives them with explicit times;
// internal/daemon supplies the real ticks, the readiness-flip poll and
// the SIGQUIT dump.
//
// OWNS: the instrument kinds (counter, gauge, float gauge, histogram,
// their func-backed forms, and the labelled Family over any of them)
// and the registry that names them; both exposition formats (/metrics
// text and the /metrics.json snapshot); trace contexts, spans and the
// trace header encoding; the readiness and degraded probe sets behind
// /readyz; the flight dump schema (dt-flight/1); the SLO burn engine
// and the watchdog set; the one fixed ring (flight events, spans,
// exemplars, SLO samples) and the one rate limiter (FlightLimiter).
//
// MUST NOT DO: start a timer or a ticking goroutine; handle a signal;
// allocate on an instrument's write path or in FlightRecorder.Record.
//
// MUST NOT import: any repro/internal package.
package obsv

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is a
// usable counter at zero: components keep Counter fields inline, bump
// them on their hot paths, and bind them to a registry with Register.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter (bind it with
// Registry.Register, or keep it private to a component).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float64-valued gauge (for rates and ratios like SLO
// burn rates, which an int64 Gauge cannot carry). Set/Value are single
// atomics.
type FloatGauge struct {
	bits atomic.Uint64
}

// NewFloatGauge returns a standalone float gauge.
func NewFloatGauge() *FloatGauge { return &FloatGauge{} }

// Set replaces the gauge's value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// CounterFunc is a counter read from the function at exposition time —
// the pattern components with pre-existing internal atomics use to
// surface them without restructuring their hot paths.
type CounterFunc func() uint64

// GaugeFunc is a gauge read from the function at exposition time.
type GaugeFunc func() float64

// Metric is an instrument a registry can expose: *Counter, *Gauge,
// *FloatGauge, *Histogram, CounterFunc, GaugeFunc, or a *Family of any
// of those. Each kind writes its own Prometheus samples and snapshot
// keys (expo.go), so a family reuses its child's code.
type Metric interface {
	kind() string // the Prometheus TYPE
	// prom writes the sample lines of name with labels, the inner
	// `key="value",...` list ("" when unlabelled).
	prom(b *strings.Builder, name, labels string)
	// snap adds the snapshot keys of series (`name` or `name{...}`).
	snap(out map[string]float64, series string)
}

// entry is one registered name and the instrument behind it.
type entry struct {
	name string
	help string
	m    Metric
}

// Registry is a named set of metrics. Constructors are create-or-get:
// asking twice for the same name returns the same instrument, and
// asking for an existing name as a different kind panics (programmer
// error — metric names are a global contract). Safe for concurrent use;
// the write path of every instrument is atomic and never touches the
// registry lock.
type Registry struct {
	mu     sync.RWMutex
	order  []*entry
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// lookupOrAdd returns the entry under name, adding one holding mk()
// when the name is free.
func (r *Registry) lookupOrAdd(name, help string, mk func() Metric) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		return e
	}
	e := &entry{name: name, help: help, m: mk()}
	r.byName[name] = e
	r.order = append(r.order, e)
	return e
}

// Register exposes an instrument a component owns under name — the one
// way to bind store's, monitor's or gossip's struct fields, a
// standalone Family, or a CounterFunc/GaugeFunc. Registering the same
// instrument twice is a no-op (for a func: any func of the same kind);
// a different instrument under a taken name panics.
func (r *Registry) Register(name, help string, m Metric) {
	e := r.lookupOrAdd(name, help, func() Metric { return m })
	if !sameInstrument(e.m, m) {
		panic(fmt.Sprintf("obsv: metric %q already registered", name))
	}
}

// sameInstrument compares pointers; funcs cannot be compared, so two
// funcs of one kind count as the same.
func sameInstrument(a, b Metric) bool {
	switch a.(type) {
	case CounterFunc:
		_, ok := b.(CounterFunc)
		return ok
	case GaugeFunc:
		_, ok := b.(GaugeFunc)
		return ok
	}
	return a == b
}

// getOrAdd is the create-or-get behind the typed constructors.
func getOrAdd[M Metric](r *Registry, name, help string, mk func() M) M {
	e := r.lookupOrAdd(name, help, func() Metric { return mk() })
	m, ok := e.m.(M)
	if !ok {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return m
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	return getOrAdd(r, name, help, NewCounter)
}

// Histogram returns the histogram registered under name with the default
// latency buckets, creating it if needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramBuckets(name, help, nil)
}

// HistogramBuckets returns the histogram registered under name with the
// given bucket upper bounds (nil = LatencyBuckets). Bounds are only used
// at creation; a create-or-get hit keeps the original bounds.
func (r *Registry) HistogramBuckets(name, help string, bounds []float64) *Histogram {
	return getOrAdd(r, name, help, func() *Histogram { return NewHistogram(bounds) })
}

// CounterVec returns a counter family keyed by one label, creating it if
// needed.
func (r *Registry) CounterVec(name, help, label string) *Family[*Counter] {
	return getOrAdd(r, name, help, func() *Family[*Counter] { return NewFamily(NewCounter, label) })
}

// GaugeVec returns a gauge family keyed by one label, creating it if
// needed.
func (r *Registry) GaugeVec(name, help, label string) *Family[*Gauge] {
	return getOrAdd(r, name, help, func() *Family[*Gauge] { return NewFamily(NewGauge, label) })
}

// HistogramVec returns a histogram family keyed by one label, creating
// it if needed (nil bounds = LatencyBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *Family[*Histogram] {
	return getOrAdd(r, name, help, func() *Family[*Histogram] {
		return NewFamily(func() *Histogram { return NewHistogram(bounds) }, label)
	})
}

// Family is a set of instruments of one kind told apart by label values
// (rpc_requests_total{kind="proof"}, and the one two-label family,
// slo_burn_rate{objective,window}). With on an existing one-label value
// is a read-locked map hit that does not allocate; hot callers may
// additionally cache the returned instrument.
type Family[M Metric] struct {
	labels []string
	mk     func() M

	mu sync.RWMutex
	m  map[string]M // by label values, joined by \xff when more than one
	ks [][]string   // label values, in creation order
}

// NewFamily returns a standalone family whose members mk creates, keyed
// by the given label names.
func NewFamily[M Metric](mk func() M, labels ...string) *Family[M] {
	return &Family[M]{labels: labels, mk: mk, m: make(map[string]M)}
}

// With returns the member for the given label values (one per label, in
// order), creating it on first use.
func (f *Family[M]) With(values ...string) M {
	k := values[0]
	if len(values) > 1 {
		k = strings.Join(values, "\xff")
	}
	f.mu.RLock()
	m, ok := f.m[k]
	f.mu.RUnlock()
	if ok {
		return m
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsv: %d label values for labels %v", len(values), f.labels))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.m[k]; ok {
		return m
	}
	m = f.mk()
	f.m[k] = m
	f.ks = append(f.ks, slices.Clone(values))
	return m
}
