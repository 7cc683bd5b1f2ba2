package obsv

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCreateOrGet(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total", "help")
	c2 := reg.Counter("x_total", "other help is ignored on the get path")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Inc()
	c1.Add(4)
	if got := c2.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g1 := reg.GaugeVec("x_gauge", "", "k").With("a")
	g1.Set(5)
	if got := reg.GaugeVec("x_gauge", "", "k").With("a").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h1 := reg.Histogram("x_seconds", "")
	if h2 := reg.Histogram("x_seconds", ""); h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("taken", "")
	mustPanic(t, "gauge family over counter", func() { reg.GaugeVec("taken", "", "k") })
	mustPanic(t, "histogram over counter", func() { reg.Histogram("taken", "") })
	mustPanic(t, "counterfunc over counter", func() { reg.Register("taken", "", CounterFunc(func() uint64 { return 0 })) })
	mustPanic(t, "countervec over counter", func() { reg.CounterVec("taken", "", "k") })
	reg.Register("func_total", "", CounterFunc(func() uint64 { return 0 }))
	mustPanic(t, "counter over counterfunc", func() { reg.Counter("func_total", "") })
	mustPanic(t, "gaugefunc over counterfunc", func() { reg.Register("func_total", "", GaugeFunc(func() float64 { return 0 })) })
}

// TestRegisterAdoptsExistingInstrument: Register binds an instrument a
// component owns, for every kind. The same instrument twice is a no-op
// (for a func, any func of the same kind); a different one panics.
func TestRegisterAdoptsExistingInstrument(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter()
	reg.Register("adopted_total", "", c)
	reg.Register("adopted_total", "", c) // idempotent
	c.Inc()
	if got := reg.Value("adopted_total"); got != 1 {
		t.Fatalf("adopted counter = %v, want 1", got)
	}
	if reg.Counter("adopted_total", "") != c {
		t.Fatal("create-or-get must return the adopted counter")
	}
	for _, pair := range []struct {
		name      string
		m, second Metric
	}{
		{"adopted_counter_total", NewCounter(), NewCounter()},
		{"adopted_gauge", NewGauge(), NewGauge()},
		{"adopted_float_gauge", NewFloatGauge(), NewFloatGauge()},
		{"adopted_seconds", NewHistogram(nil), NewHistogram(nil)},
		{"adopted_gauge_vec", NewFamily(NewGauge, "src"), NewFamily(NewGauge, "src")},
	} {
		reg.Register(pair.name, "", pair.m)
		reg.Register(pair.name, "", pair.m)
		mustPanic(t, "different instrument under "+pair.name, func() { reg.Register(pair.name, "", pair.second) })
	}

	reg.Register("derived_total", "", CounterFunc(func() uint64 { return 1 }))
	reg.Register("derived_total", "", CounterFunc(func() uint64 { return 2 })) // a func of the same kind: no-op
	if got := reg.Value("derived_total"); got != 1 {
		t.Fatalf("derived_total = %v, want the first func's 1", got)
	}
	mustPanic(t, "counter over counterfunc", func() { reg.Register("derived_total", "", NewCounter()) })
}

func TestVecWith(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("rpc_total", "", "kind")
	cv.With("status").Inc()
	cv.With("status").Inc()
	cv.With("invoke").Inc()
	if got := cv.With("status").Value(); got != 2 {
		t.Fatalf(`rpc_total{kind="status"} = %d, want 2`, got)
	}
	if got := reg.Value(`rpc_total{kind="invoke"}`); got != 1 {
		t.Fatalf(`rpc_total{kind="invoke"} = %v, want 1`, got)
	}

	gv := reg.GaugeVec("frontier", "", "source")
	gv.With("mon-a").Set(42)
	if got := reg.Value(`frontier{source="mon-a"}`); got != 42 {
		t.Fatalf("frontier gauge = %v, want 42", got)
	}

	hv := reg.HistogramVec("lat_seconds", "", "kind", nil)
	hv.With("status").Observe(0.001)
	if got := reg.Value(`lat_seconds{kind="status"}_count`); got != 1 {
		t.Fatalf("histogram vec count = %v, want 1", got)
	}
}

func TestFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	n := uint64(3)
	reg.Register("derived_total", "", CounterFunc(func() uint64 { return n }))
	reg.Register("derived_gauge", "", GaugeFunc(func() float64 { return 1.5 }))
	if got := reg.Value("derived_total"); got != 3 {
		t.Fatalf("counterfunc = %v, want 3", got)
	}
	n = 9
	if got := reg.Value("derived_total"); got != 9 {
		t.Fatalf("counterfunc = %v, want 9 after update", got)
	}
	if got := reg.Value("derived_gauge"); got != 1.5 {
		t.Fatalf("gaugefunc = %v, want 1.5", got)
	}
}

// TestHotPathAllocs pins the package's core promise: bumping an
// instrument on a request path never allocates.
func TestHotPathAllocs(t *testing.T) {
	c := NewCounter()
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v per op, want 0", n)
	}
	g := NewGauge()
	if n := testing.AllocsPerRun(1000, func() { g.Set(1) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v per op, want 0", n)
	}
	h := NewHistogram(nil)
	v := 1e-6
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v *= 1.001 }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op, want 0", n)
	}
	cv := NewRegistry().CounterVec("warm_total", "", "kind")
	cv.With("warm") // label creation may allocate; the warm path must not
	if n := testing.AllocsPerRun(1000, func() { cv.With("warm").Inc() }); n != 0 {
		t.Fatalf("CounterVec.With (existing label) allocates %v per op, want 0", n)
	}
	fr := NewFlightRecorder(64)
	tc := NewTrace()
	if n := testing.AllocsPerRun(1000, func() { fr.Record("serve", "head_advance", "", 42, tc) }); n != 0 {
		t.Fatalf("FlightRecorder.Record allocates %v per op, want 0", n)
	}
	he := NewHistogram(nil)
	if n := testing.AllocsPerRun(1000, func() { he.ObserveExemplar(1e-3, tc) }); n != 0 {
		t.Fatalf("Histogram.ObserveExemplar (sampled) allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { he.ObserveExemplar(1e-3, TraceContext{}) }); n != 0 {
		t.Fatalf("Histogram.ObserveExemplar (unsampled) allocates %v per op, want 0", n)
	}
	fg := NewFloatGauge()
	if n := testing.AllocsPerRun(1000, func() { fg.Set(0.5) }); n != 0 {
		t.Fatalf("FloatGauge.Set allocates %v per op, want 0", n)
	}

	// The families' warm paths, as their hot callers use them. label is
	// a variable so the lookups hash a string they did not build.
	reg := NewRegistry()
	reqs := reg.CounterVec("req_total", "", "kind")
	errs := reg.CounterVec("err_total", "", "kind")
	lat := reg.HistogramVec("lat_seconds", "", "kind", nil)
	gv := reg.GaugeVec("stalled", "", "watchdog")
	label := "proof"
	reqs.With(label)
	errs.With(label)
	lat.With(label)
	gv.With(label)
	// The transport's per-request bookkeeping (Server.dispatch).
	if n := testing.AllocsPerRun(1000, func() {
		reqs.With(label).Inc()
		lat.With(label).ObserveExemplar(1e-4, TraceContext{})
		errs.With(label).Inc()
	}); n != 0 {
		t.Fatalf("per-request family bookkeeping allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { lat.With(label).ObserveExemplar(1e-3, tc) }); n != 0 {
		t.Fatalf("HistogramVec.With.ObserveExemplar (sampled) allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { lat.With(label).ObserveExemplar(1e-3, TraceContext{}) }); n != 0 {
		t.Fatalf("HistogramVec.With.ObserveExemplar (unsampled) allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { gv.With(label).Set(1) }); n != 0 {
		t.Fatalf("GaugeVec.With.Set (existing label) allocates %v per op, want 0", n)
	}
}

// TestRegistryRace hammers create-or-get, instrument writes, and both
// exposition paths concurrently; run with -race.
func TestRegistryRace(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				reg.Counter("race_total", "").Inc()
				reg.GaugeVec("race_gauge", "", "k").With("a").Set(int64(j))
				reg.Histogram("race_seconds", "").Observe(float64(j) * 1e-6)
				reg.CounterVec("race_vec_total", "", "k").With("a").Inc()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			for j := 0; j < 100; j++ {
				sb.Reset()
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := reg.Value("race_total"); got != 8*500 {
		t.Fatalf("race_total = %v, want %d", got, 8*500)
	}
}
