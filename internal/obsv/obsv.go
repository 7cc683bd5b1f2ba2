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
package obsv

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is not
// usable directly; obtain counters from a Registry (or NewCounter for
// instruments bound to a registry later).
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter (register it with
// Registry.RegisterCounter, or keep it private to a component).
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

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

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

// metric kinds held by a registry entry. Exactly one of the typed
// fields below is set per entry.
type entry struct {
	name   string
	help   string
	label  string // label key for vec entries
	label2 string // second label key for two-label vec entries

	c   *Counter
	g   *Gauge
	h   *Histogram
	cf  func() uint64  // counter func
	gf  func() float64 // gauge func
	cv  *CounterVec
	gv  *GaugeVec
	hv  *HistogramVec
	gv2 *GaugeVec2
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

func (r *Registry) lookupOrAdd(name string, mk func() *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		return e
	}
	e := mk()
	e.name = name
	r.byName[name] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, c: NewCounter()} })
	if e.c == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, g: NewGauge()} })
	if e.g == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return e.g
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
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, h: NewHistogram(bounds)} })
	if e.h == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return e.h
}

// RegisterCounter exposes a pre-existing counter under name — for
// components that own their instruments and bind them to a registry
// later (store, monitor). Registering the same counter twice is a
// no-op; a different instrument under the same name panics.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, c: c} })
	if e.c != c {
		panic(fmt.Sprintf("obsv: metric %q already registered", name))
	}
}

// RegisterGauge exposes a pre-existing gauge under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, g: g} })
	if e.g != g {
		panic(fmt.Sprintf("obsv: metric %q already registered", name))
	}
}

// RegisterHistogram exposes a pre-existing histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, h: h} })
	if e.h != h {
		panic(fmt.Sprintf("obsv: metric %q already registered", name))
	}
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the pattern components with pre-existing internal
// atomics use to surface them without restructuring their hot paths.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, cf: fn} })
	if e.cf == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, gf: fn} })
	if e.gf == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
}

// CounterVec returns a counter family keyed by one label, creating it if
// needed.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	e := r.lookupOrAdd(name, func() *entry {
		return &entry{help: help, label: label, cv: &CounterVec{m: make(map[string]*Counter)}}
	})
	if e.cv == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return e.cv
}

// GaugeVec returns a gauge family keyed by one label, creating it if
// needed.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	e := r.lookupOrAdd(name, func() *entry {
		return &entry{help: help, label: label, gv: &GaugeVec{m: make(map[string]*Gauge)}}
	})
	if e.gv == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return e.gv
}

// HistogramVec returns a histogram family keyed by one label, creating
// it if needed (nil bounds = LatencyBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	e := r.lookupOrAdd(name, func() *entry {
		return &entry{help: help, label: label, hv: &HistogramVec{bounds: bounds, m: make(map[string]*Histogram)}}
	})
	if e.hv == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return e.hv
}

// GaugeVec2 returns a float-gauge family keyed by two labels (e.g.
// slo_burn_rate{objective="...",window="..."}), creating it if needed.
func (r *Registry) GaugeVec2(name, help, label1, label2 string) *GaugeVec2 {
	e := r.lookupOrAdd(name, func() *entry {
		return &entry{help: help, label: label1, label2: label2, gv2: &GaugeVec2{m: make(map[gv2Key]*FloatGauge)}}
	})
	if e.gv2 == nil {
		panic(fmt.Sprintf("obsv: metric %q already registered as a different kind", name))
	}
	return e.gv2
}

// NewGaugeVec returns a standalone gauge family.
func NewGaugeVec() *GaugeVec { return &GaugeVec{m: make(map[string]*Gauge)} }

// RegisterGaugeVec exposes a pre-existing gauge family under name.
func (r *Registry) RegisterGaugeVec(name, help, label string, v *GaugeVec) {
	e := r.lookupOrAdd(name, func() *entry { return &entry{help: help, label: label, gv: v} })
	if e.gv != v {
		panic(fmt.Sprintf("obsv: metric %q already registered", name))
	}
}

// CounterVec is a family of counters distinguished by one label value
// (e.g. transport_rpc_total{kind="proof"}). With is read-locked on the
// fast path and does not allocate for existing labels; hot callers may
// additionally cache the returned *Counter.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
	ks []string
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[value]; ok {
		return c
	}
	c = NewCounter()
	v.m[value] = c
	v.ks = append(v.ks, value)
	return c
}

// GaugeVec is a family of gauges distinguished by one label value.
type GaugeVec struct {
	mu sync.RWMutex
	m  map[string]*Gauge
	ks []string
}

// With returns the gauge for the given label value, creating it on
// first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.m[value]; ok {
		return g
	}
	g = NewGauge()
	v.m[value] = g
	v.ks = append(v.ks, value)
	return g
}

// gv2Key is a (label1 value, label2 value) pair.
type gv2Key [2]string

// GaugeVec2 is a family of float gauges distinguished by two label
// values.
type GaugeVec2 struct {
	mu sync.RWMutex
	m  map[gv2Key]*FloatGauge
	ks []gv2Key
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec2) With(v1, v2 string) *FloatGauge {
	k := gv2Key{v1, v2}
	v.mu.RLock()
	g, ok := v.m[k]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.m[k]; ok {
		return g
	}
	g = NewFloatGauge()
	v.m[k] = g
	v.ks = append(v.ks, k)
	return g
}

// HistogramVec is a family of histograms distinguished by one label
// value.
type HistogramVec struct {
	bounds []float64
	mu     sync.RWMutex
	m      map[string]*Histogram
	ks     []string
}

// With returns the histogram for the given label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[value]; ok {
		return h
	}
	h = NewHistogram(v.bounds)
	v.m[value] = h
	v.ks = append(v.ks, value)
	return h
}
