package obsv

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGoldenExposition pins the bytes an operator reads — /metrics,
// /metrics.json and /readyz — for one registry holding every
// instrument kind and label shape the package exposes: a counter, int
// gauges at -2 and at 10^6 (which must print as 1000000, not 1e+06),
// func-backed gauge and counter, histograms on both bucket layouts with
// overflow, one-label counter, gauge and histogram families (one label
// value needing escapes), the two-label slo_burn_rate from a ticked
// SLO engine, empty help, and a registration order that is not
// alphabetical; plus a Health with passing and failing readiness and
// degraded probes.
//
// UPDATE_GOLDEN=1 rewrites testdata/; do that only on a commit whose
// output is trusted.
func TestGoldenExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta_requests_total", "requests served").Add(41)
	neg, big := NewGauge(), NewGauge()
	neg.Set(-2)
	big.Set(1_000_000)
	bind(reg, "zeta_balance", "", neg)
	bind(reg, "alpha_resident_bytes", "bytes resident", big)
	bind(reg, "mid_ratio", "a func-backed gauge", func() float64 { return 0.375 })
	bind(reg, "mid_events_total", "", func() uint64 { return 7 })

	lat := reg.Histogram("beta_latency_seconds", "request latency")
	for _, v := range []float64{1e-6, 3e-4, 3e-4, 0.02, 40} { // 40 s is above the top bound
		lat.Observe(v)
	}
	sizes := reg.HistogramBuckets("beta_batch_calls", "", SizeBuckets)
	for _, v := range []float64{1, 3, 3, 9, 100000} {
		sizes.Observe(v)
	}

	calls := reg.CounterVec("rpc_calls_total", "calls by kind", "kind")
	calls.With("proof").Add(5)
	calls.With("we\"ird\\kind\n").Inc()
	calls.With("audit").Add(2)
	front := reg.GaugeVec("frontier", "", "source")
	front.With("mon-b").Set(12)
	front.With("mon-a").Set(-3)
	handler := reg.HistogramVec("rpc_seconds", "handler latency", "kind", nil)
	handler.With("consistency").Observe(0.002)

	slo := NewSLOEngine(reg, []Objective{
		{Name: "proof-p99", Kind: "latency", Series: `rpc_seconds{kind="proof"}`, Threshold: 0.016384, Target: 0.99},
		{Name: "errors", Kind: "ratio", BadSeries: `rpc_calls_total{kind="audit"}`, TotalSeries: "zeta_requests_total", Target: 0.9},
	}, 10*time.Second)
	slo.Register(reg)
	t0 := time.Unix(1_700_000_000, 0)
	proof := handler.With("proof")
	for i := 0; i < 9; i++ {
		proof.Observe(0.001)
	}
	slo.Tick(t0)
	proof.Observe(0.5)
	slo.Tick(t0.Add(10 * time.Second))

	h := NewHealth()
	h.Set("store", func() error { return nil })
	h.Set("serve", func() error { return errors.New("poisoned: head regressed") })
	h.Set("admission", func() error { return nil })
	h.SetDegraded("watchdog:wal-fsync", func() error { return errors.New("stalled: 1 in-flight operation") })
	h.SetDegraded("watchdog:push-drain", func() error { return nil })

	ep := Endpoint{Registry: reg, Health: h}.Handler()
	_, prom := get(t, ep, "/metrics")
	_, snap := get(t, ep, "/metrics.json")
	code, ready := get(t, ep, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503 with a failing readiness probe", code)
	}
	// Indenting changes only the whitespace between JSON tokens, so the
	// golden stays byte-for-byte comparable and reviewable.
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(snap), "", " "); err != nil {
		t.Fatalf("/metrics.json is not JSON: %v", err)
	}
	for file, got := range map[string]string{
		"exposition.prom": prom,
		"snapshot.json":   indented.String(),
		"readyz.txt":      ready,
	} {
		path := filepath.Join("testdata", file)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden.\ngot:\n%s\nwant:\n%s", file, got, want)
		}
	}
}
