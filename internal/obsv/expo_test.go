package obsv

import (
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "things done").Add(3)
	g := NewGauge()
	g.Set(-2)
	reg.Register("b_gauge", "current things", g)
	reg.Register("c_ratio", "", GaugeFunc(func() float64 { return 0.5 }))
	reg.Histogram("d_seconds", "latency").Observe(1e-6)
	reg.CounterVec("e_total", "", "kind").With(`we"ird`).Add(7)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total things done\n# TYPE a_total counter\na_total 3\n",
		"# TYPE b_gauge gauge\nb_gauge -2\n",
		"c_ratio 0.5\n",
		"# TYPE d_seconds histogram\n",
		`d_seconds_bucket{le="2.5e-07"} 0` + "\n",
		`d_seconds_bucket{le="+Inf"} 1` + "\n",
		"d_seconds_sum 1e-06\nd_seconds_count 1\n",
		`e_total{kind="we\"ird"} 7` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q; got:\n%s", want, out)
		}
	}
}

func TestSnapshotKeys(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("s_total", "").Add(2)
	h := reg.Histogram("s_seconds", "")
	h.Observe(0.5)
	h.Observe(0.5)
	reg.GaugeVec("s_front", "", "source").With("mon-a").Set(11)

	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		"s_total":                 2,
		"s_seconds_count":         2,
		"s_seconds_sum":           1,
		"s_seconds_max":           0.5,
		`s_front{source="mon-a"}`: 11,
	} {
		if got := snap[key]; got != want {
			t.Fatalf("snapshot[%q] = %v, want %v", key, got, want)
		}
	}
	for _, q := range []string{"s_seconds_p50", "s_seconds_p99", "s_seconds_p999"} {
		if _, ok := snap[q]; !ok {
			t.Fatalf("snapshot missing quantile key %q", q)
		}
	}
	if got := reg.Value("does_not_exist"); got != 0 {
		t.Fatalf("Value(absent) = %v, want 0", got)
	}
}
