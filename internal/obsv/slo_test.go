package obsv

import (
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestObjectiveValidate(t *testing.T) {
	good := []Objective{
		{Name: "lat", Kind: "latency", Series: "x_seconds", Threshold: 0.01, Target: 0.99},
		{Name: "avail", Kind: "ratio", BadSeries: "bad", TotalSeries: "total", Target: 0.999},
		{Name: "lag", Kind: "gauge", Series: "pending", Threshold: 100, Target: 0.9},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", o.Name, err)
		}
	}
	bad := []Objective{
		{Kind: "latency", Series: "x", Target: 0.9},             // no name
		{Name: "t", Kind: "latency", Series: "x", Target: 1},    // target out of range
		{Name: "t", Kind: "latency", Target: 0.9},               // no series
		{Name: "t", Kind: "ratio", BadSeries: "b", Target: 0.9}, // no total
		{Name: "t", Kind: "quantum", Series: "x", Target: 0.9},  // unknown kind
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad[%d] (%+v): expected error", i, o)
		}
	}
}

func TestSLOEngineLatencyBurn(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramBuckets("lat_seconds", "t", []float64{1, 2})
	e := NewSLOEngine(reg, []Objective{
		{Name: "lat-p99", Kind: "latency", Series: "lat_seconds", Threshold: 1, Target: 0.9},
	}, 10*time.Second)
	e.Register(reg)

	t0 := time.Now()
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	e.Tick(t0)
	st := e.Status()
	if len(st) != 1 || st[0].Breaching {
		t.Fatalf("all-good objective breaching: %+v", st)
	}
	if st[0].Compliance != 1 {
		t.Fatalf("compliance = %v, want 1", st[0].Compliance)
	}

	// Ten bad observations with sampled traces: burn explodes, the
	// breach links exemplars.
	tc := NewTrace()
	for i := 0; i < 10; i++ {
		h.ObserveExemplar(5, tc)
	}
	e.Tick(t0.Add(10 * time.Second))
	st = e.Status()
	if !st[0].Breaching {
		t.Fatalf("objective must breach after 50%% bad at target 0.9: %+v", st[0])
	}
	// The engine is younger than 5m, so the baseline is the zero
	// sample: Δbad/Δtotal = 10/20; burn = 0.5 / (1-0.9) = 5.
	if got := st[0].Burn["5m"]; got < 4.99 || got > 5.01 {
		t.Fatalf("5m burn = %v, want 5", got)
	}
	if len(st[0].Exemplars) == 0 {
		t.Fatal("breaching latency objective must carry exemplar trace ids")
	}
	wantID := hex.EncodeToString(tc.TraceID[:])
	if st[0].Exemplars[0] != wantID {
		t.Fatalf("exemplar = %q, want trace id %q", st[0].Exemplars[0], wantID)
	}
	if v := reg.Value(`slo_burn_rate{objective="lat-p99",window="5m"}`); v < 4.99 {
		t.Fatalf("slo_burn_rate gauge = %v, want ~5", v)
	}

	// Prometheus text carries the two-label gauge.
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `slo_burn_rate{objective="lat-p99",window="5m"} 5`) {
		t.Fatalf("prometheus missing slo_burn_rate series:\n%s", b.String())
	}
}

func TestSLOEngineRatioAndGauge(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("req_total", "")
	errs := reg.Counter("err_total", "")
	pending := NewGauge()
	reg.Register("pending", "", pending)
	e := NewSLOEngine(reg, []Objective{
		{Name: "avail", Kind: "ratio", BadSeries: "err_total", TotalSeries: "req_total", Target: 0.99},
		{Name: "lag", Kind: "gauge", Series: "pending", Threshold: 10, Target: 0.5},
	}, 10*time.Second)

	t0 := time.Now()
	reqs.Add(100)
	e.Tick(t0)
	errs.Add(50)
	reqs.Add(50)
	pending.Set(100) // above threshold: every subsequent tick is bad
	e.Tick(t0.Add(10 * time.Second))
	e.Tick(t0.Add(20 * time.Second))

	var avail, lag SLOStatus
	for _, s := range e.Status() {
		switch s.Name {
		case "avail":
			avail = s
		case "lag":
			lag = s
		}
	}
	// The engine is younger than 5m, so the baseline is the zero
	// sample. Δbad/Δtotal = 50/150; burn = (1/3)/(1-0.99) = 33.3.
	if got := avail.Burn["5m"]; got < 33.3 || got > 33.4 {
		t.Fatalf("avail 5m burn = %v, want 33.3", got)
	}
	// Gauge: 3 ticks, 2 bad (the first sampled pending=0):
	// Δbad/Δtotal = 2/3, burn = (2/3)/(1-0.5) = 1.33.
	if got := lag.Burn["5m"]; got < 1.33 || got > 1.34 {
		t.Fatalf("lag 5m burn = %v, want 1.33", got)
	}
	if !avail.Breaching || !lag.Breaching {
		t.Fatalf("both objectives must breach: avail=%+v lag=%+v", avail, lag)
	}
}

// TestSLOEngineBaseline drives the burn windows through an engine's
// life with explicit tick times. While the engine is younger than a
// window, that window's baseline is the zero sample, so what was seen
// before the first tick stays in the window until the window has
// passed; once the ring has dropped samples, the oldest retained sample
// is the baseline.
func TestSLOEngineBaseline(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("req_total", "")
	errs := reg.Counter("err_total", "")
	const every = 500 * time.Millisecond // the ring is capped at 4096 samples, under the 1h window
	e := NewSLOEngine(reg, []Objective{
		{Name: "avail", Kind: "ratio", BadSeries: "err_total", TotalSeries: "req_total", Target: 0.9},
	}, every)
	t0 := time.Unix(1_700_000_000, 0)
	ticks := 0
	tickTo := func(n int) {
		for ; ticks < n; ticks++ {
			e.Tick(t0.Add(time.Duration(ticks) * every))
		}
	}
	check := func(when string, want5m, want1h float64) {
		t.Helper()
		burn := e.Status()[0].Burn
		for w, want := range map[string]float64{"5m": want5m, "1h": want1h} {
			if got := burn[w]; got < want-0.01 || got > want+0.01 {
				t.Errorf("%s (tick %d): %s burn = %v, want %v", when, ticks, w, got, want)
			}
		}
	}

	reqs.Add(10) // every request bad, before the first tick: burn 1/(1-0.9) = 10
	errs.Add(10)
	tickTo(1)
	check("first tick", 10, 10)
	tickTo(2)
	check("second tick", 10, 10)

	reqs.Add(10) // half bad since start: burn 5
	fiveMin := int(5 * time.Minute / every)
	tickTo(fiveMin)
	check("last tick inside 5m", 5, 5)
	tickTo(fiveMin + 1) // at t0+5m the first sample is the 5m baseline
	check("5m boundary", 0, 5)

	tickTo(4096)
	check("ring full, nothing dropped", 0, 5)
	tickTo(4097) // the first sample is gone: the second, after all the bad requests, is the 1h baseline
	check("ring wrapped", 0, 0)
}

func TestSLOHandler(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramBuckets("lat_seconds", "t", []float64{1})
	e := NewSLOEngine(reg, []Objective{
		{Name: "lat", Kind: "latency", Series: "lat_seconds", Threshold: 1, Target: 0.9},
	}, 10*time.Second)
	h.Observe(5)
	e.Tick(time.Now())
	handler := e.Handler()

	// Text form: a table with the objective and its state.
	rr := httptest.NewRecorder()
	handler(rr, httptest.NewRequest("GET", "/slo", nil))
	if !strings.Contains(rr.Body.String(), "lat") || !strings.Contains(rr.Body.String(), "BREACHING") {
		t.Fatalf("text /slo missing objective or state:\n%s", rr.Body.String())
	}

	// JSON form: parseable statuses.
	rr = httptest.NewRecorder()
	handler(rr, httptest.NewRequest("GET", "/slo?format=json", nil))
	var statuses []SLOStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &statuses); err != nil {
		t.Fatalf("/slo?format=json not parseable: %v\n%s", err, rr.Body.String())
	}
	if len(statuses) != 1 || statuses[0].Name != "lat" || !statuses[0].Breaching {
		t.Fatalf("json statuses = %+v", statuses)
	}
}

func TestSLOStatusBeforeFirstTick(t *testing.T) {
	reg := NewRegistry()
	e := NewSLOEngine(reg, []Objective{
		{Name: "lat", Kind: "latency", Series: "lat_seconds", Threshold: 1, Target: 0.9},
	}, time.Second)
	st := e.Status()
	if len(st) != 1 || st[0].Name != "lat" || st[0].Breaching {
		t.Fatalf("pre-tick status = %+v, want quiet declaration", st)
	}
}

func TestFmtWindow(t *testing.T) {
	for d, want := range map[time.Duration]string{
		5 * time.Minute:  "5m",
		time.Hour:        "1h",
		30 * time.Second: "30s",
	} {
		if got := fmtWindow(d); got != want {
			t.Errorf("fmtWindow(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestDefaultSLOsValidate(t *testing.T) {
	for _, o := range append(DefaultMonitorSLOs(), DefaultWitnessSLOs()...) {
		if err := o.Validate(); err != nil {
			t.Errorf("default objective %q invalid: %v", o.Name, err)
		}
	}
}
