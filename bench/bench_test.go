package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
)

func TestMain(m *testing.M) {
	if err := loadSpec(); err != nil {
		fatal(err)
	}
	os.Exit(m.Run())
}

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	d := durations(100)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}, {0, time.Millisecond}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0.5},    // even p90 has only 5 beyond: fall back to the median
		{99, 0.5},    // 9.9 beyond p90
		{100, 0.9},   // exactly 10 beyond p90
		{999, 0.9},   // 9.99 beyond p99
		{1000, 0.99}, // exactly 10 beyond p99
		{10000, 0.999},
		{100000, 0.9999},
	} {
		p, v := tailQuantile(durations(c.n))
		if p != c.want {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, p, c.want)
		}
		if want := quantile(durations(c.n), c.want); v != want {
			t.Errorf("n=%d: tail value %v, want %v", c.n, v, want)
		}
	}
}

func TestSliceRates(t *testing.T) {
	window := numSlices * time.Second // slices of one second
	want := make([]float64, numSlices)
	var samples []sample
	for slice := range want {
		want[slice] = float64(10 + slice)
		for i := 0; i < 10+slice; i++ {
			samples = append(samples, sample{at: time.Duration(slice)*time.Second + time.Duration(i)*time.Microsecond})
		}
	}
	// Outside the window on either side: not counted.
	samples = append(samples, sample{at: -time.Millisecond}, sample{at: window}, sample{at: window + time.Second})
	rates := sliceRates(samples, window)
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("slice rates %v, want %v", rates, want)
		}
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v, want 2.5", got)
	}
}

// The reported figure is the better decile over the slices: the first
// for a cost, the ninth for a rate, and it stays put while most of the
// window is disturbed.
func TestQuietDecile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quiet(v, true); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("quiet cost %v, want 1.1", got)
	}
	if got := quiet(v, false); math.Abs(got-9.9) > 1e-12 {
		t.Errorf("quiet rate %v, want 9.9", got)
	}
	if got := quiet(nil, true); got != 0 {
		t.Errorf("quiet of nothing %v, want 0", got)
	}
	if got := quiet([]float64{7}, false); got != 7 {
		t.Errorf("quiet of one value %v, want 7", got)
	}

	window := numSlices * time.Second
	p := &phase{window: window}
	for slice := 0; slice < numSlices; slice++ {
		lat, n := 200*time.Microsecond, 9
		switch {
		case slice == 0:
			continue // nothing completed: skipped, not counted as zero
		case slice%3 != 0:
			lat, n = 900*time.Microsecond, 3 // disturbed: two slices in three
		}
		for i := 0; i < n; i++ {
			at := time.Duration(slice)*time.Second + time.Duration(i)*time.Millisecond
			p.samples[classPrimary] = append(p.samples[classPrimary], sample{at: at, lat: lat})
		}
		p.cpuSlices = append(p.cpuSlices, time.Duration(n)*lat/2)
	}
	p.cpuSlices = append([]time.Duration{time.Second}, p.cpuSlices...) // CPU burnt in the empty slice
	if got := sliceMedians(p.samples[classPrimary], window); len(got) != numSlices || got[0] != 0 || got[3] != float64(200*time.Microsecond) {
		t.Fatalf("slice medians %v, want one per slice, 0 for the empty first, 200µs for the fourth", got)
	}
	if got := p.p50(classPrimary); got != 200*time.Microsecond {
		t.Errorf("p50 %v, want 200µs", got)
	}
	if got := p.rate(); got != 9 {
		t.Errorf("rate %v/s, want 9/s", got)
	}
	if got := p.cpuPerOp(); got != 100*time.Microsecond {
		t.Errorf("cpu per op %v, want 100µs", got)
	}
	if got := (&phase{window: window}).p50(classPrimary); got != 0 {
		t.Errorf("p50 of nothing %v, want 0", got)
	}
}

// Figures are reported in reference time: a slice in which the fixed work
// took twice refNominal counts half its latency and CPU, twice its rate.
func TestReferenceTime(t *testing.T) {
	start := time.Unix(2000, 0)
	r := newReference()
	window := numSlices * time.Second
	for i := 0; i < numSlices*100; i++ {
		at := start.Add(time.Duration(i) * 10 * time.Millisecond)
		d := refNominal
		switch {
		case i >= 100*numSlices/2:
			d = 2 * refNominal // the second half of the window runs slow
		case i%100 < 5:
			d = refNominal / 2 // a freak fast burst is not the first decile
		case i%100 > 50:
			d = 10 * refNominal // pre-empted bursts read long and are ignored
		}
		r.samples = append(r.samples, refSample{at: at, d: d})
	}
	if got := r.slowdown(start, start.Add(time.Second)); got != 1 {
		t.Errorf("slowdown in a fast second %v, want 1", got)
	}
	if got := r.slowdown(start.Add(window/2), start.Add(window)); got != 2 {
		t.Errorf("slowdown in the slow half %v, want 2", got)
	}
	if got := r.slowdown(start.Add(-time.Hour), start.Add(-time.Minute)); got != 1 {
		t.Errorf("slowdown where nothing was sampled %v, want 1", got)
	}
	saved := ref
	ref = r
	defer func() { ref = saved }()
	p := &phase{start: start, window: window}
	for slice := 0; slice < numSlices; slice++ {
		lat := 300 * time.Microsecond
		if slice >= numSlices/2 {
			lat *= 2
		}
		n := int(time.Second / (10 * lat)) // a tenth of each second is spent in operations
		for i := 0; i < n; i++ {
			p.samples[classPrimary] = append(p.samples[classPrimary], sample{at: time.Duration(slice)*time.Second + time.Duration(i)*time.Millisecond, lat: lat})
		}
		p.cpuSlices = append(p.cpuSlices, time.Duration(n)*lat/3)
	}
	if got := p.p50(classPrimary); got != 300*time.Microsecond {
		t.Errorf("p50 %v, want 300µs in both halves", got)
	}
	if got := p.rate(); math.Abs(got-333) > 1 {
		t.Errorf("rate %v/s, want 333/s in both halves", got)
	}
	if got := p.cpuPerOp(); got != 100*time.Microsecond {
		t.Errorf("cpu per op %v, want 100µs in both halves", got)
	}
	if got := medianF(p.slowdowns()); got != 1.5 {
		t.Errorf("median slowdown %v, want 1.5", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance rule for run-to-run spread is written in.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, period: 50 * time.Millisecond}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("first operation due %v, want the start", got)
	}
	// Due times never depend on how earlier operations fared.
	if got := s.due(20); !got.Equal(start.Add(time.Second)) {
		t.Errorf("operation 20 due %v, want start+1s", got)
	}
	due := s.due(3)
	if got := lateness(due, due.Add(7*time.Millisecond)); got != 7*time.Millisecond {
		t.Errorf("lateness %v, want 7ms", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early send is %v late, want 0", got)
	}
	// Latency counts from the due time: a send delayed by a stall still
	// charges the stall to the operation.
	sent, done := due.Add(30*time.Millisecond), due.Add(45*time.Millisecond)
	if got := done.Sub(due); got != 45*time.Millisecond || done.Sub(sent) != 15*time.Millisecond {
		t.Errorf("due-time latency %v", got)
	}
	// An open loop's throughput is its completions over the time the last
	// one took to complete: 20 operations due 50 ms apart, each done 50 ms
	// after it was due, take one second.
	p := &phase{window: time.Second, open: true}
	for i := 0; i < 20; i++ {
		p.samples[classPrimary] = append(p.samples[classPrimary], sample{at: s.due(i).Sub(start), lat: 50 * time.Millisecond})
	}
	if got := p.rate(); got != 20 {
		t.Errorf("open-loop rate %v/s, want 20/s", got)
	}
}

// The delta parser must find the keys the daemons' registry really emits.
func TestMetricsDeltaAndHistogramKeys(t *testing.T) {
	reg := obsv.NewRegistry()
	lat := reg.HistogramVec("rpc_latency_seconds", "", "kind", nil)
	fsync := reg.Histogram("store_wal_fsync_seconds", "")
	errs := reg.CounterVec("rpc_errors_total", "", "kind")
	hits := reg.Counter("serve_cache_hits_total", "")
	lat.With("proof").Observe(0.010)
	hits.Add(5)
	before := roundTrip(t, reg)

	lat.With("proof").Observe(0.002)
	lat.With("proof").Observe(0.004)
	lat.With("_batch").Observe(0.5) // label first used inside the window
	fsync.Observe(0.001)
	errs.With("submit").Add(3)
	hits.Add(7)
	d := delta{before: before, after: roundTrip(t, reg)}

	if got := d.of("serve_cache_hits_total"); got != 7 {
		t.Errorf("counter delta %v, want 7", got)
	}
	if got := d.of(`rpc_errors_total{kind="submit"}`); got != 3 {
		t.Errorf("labelled counter delta %v, want 3", got)
	}
	sum, count := histSeries("rpc_latency_seconds", "kind", "proof")
	if sum != `rpc_latency_seconds{kind="proof"}_sum` || count != `rpc_latency_seconds{kind="proof"}_count` {
		t.Errorf("histogram keys %q %q", sum, count)
	}
	for _, key := range []string{sum, count} {
		if _, ok := d.after[key]; !ok {
			t.Errorf("registry snapshot has no key %q", key)
		}
	}
	mean, n := d.histMean("rpc_latency_seconds", "kind", "proof")
	if n != 2 || mean != 3*time.Millisecond {
		t.Errorf("windowed mean %v over %v observations, want 3ms over 2 (the earlier 10ms excluded)", mean, n)
	}
	if mean, n := d.histMean("rpc_latency_seconds", "kind", "_batch"); n != 1 || mean != 500*time.Millisecond {
		t.Errorf("series absent before the window: mean %v n %v", mean, n)
	}
	if mean, n := d.histMean("store_wal_fsync_seconds", "", ""); n != 1 || mean != time.Millisecond {
		t.Errorf("unlabelled histogram: mean %v n %v", mean, n)
	}
	if got := d.histTotal("rpc_latency_seconds", "kind", "proof"); got != 6*time.Millisecond {
		t.Errorf("windowed total %v, want 6ms", got)
	}
	if mean, n := d.histMean("rpc_latency_seconds", "kind", "never"); mean != 0 || n != 0 {
		t.Errorf("unknown series: mean %v n %v, want zeros", mean, n)
	}
}

// roundTrip passes a registry through the JSON /metrics.json serves.
func roundTrip(t *testing.T, reg *obsv.Registry) snapshot {
	t.Helper()
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBudgetRowsSumToMean(t *testing.T) {
	b := newBudget(1000*time.Microsecond, map[string]time.Duration{
		"wire": 600 * time.Microsecond, "server": 200 * time.Microsecond, "client_verify": 150 * time.Microsecond,
	})
	if b.Residual != 50*time.Microsecond || b.explained() != 950*time.Microsecond {
		t.Errorf("residual %v explained %v, want 50us and 950us", b.Residual, b.explained())
	}
	var sum time.Duration
	for _, name := range budgetRows {
		sum += b.Rows[name]
	}
	if sum+b.Residual != b.Mean {
		t.Errorf("rows %v + residual %v != mean %v", sum, b.Residual, b.Mean)
	}
	if strings.Contains(b.String(), "GAP") {
		t.Errorf("a 5%% residual was reported as a gap:\n%s", b)
	}
	gap := newBudget(1000*time.Microsecond, map[string]time.Duration{"wire": 700 * time.Microsecond})
	if r := gap.residualRatio(); math.Abs(r-0.3) > 1e-9 {
		t.Errorf("residual ratio %v, want 0.3", r)
	}
	if !strings.Contains(gap.String(), "INSTRUMENTATION GAP") {
		t.Errorf("a 30%% residual was not named as a gap:\n%s", gap)
	}
	// Rows that over-explain (overlapping stages) leave a negative
	// residual, which counts against the budget just the same.
	over := newBudget(100*time.Microsecond, map[string]time.Duration{"wire": 130 * time.Microsecond})
	if over.Residual != -30*time.Microsecond || math.Abs(over.residualRatio()-0.3) > 1e-9 {
		t.Errorf("over-explained budget: residual %v ratio %v", over.Residual, over.residualRatio())
	}
}

func TestSpansPerOpAndNil(t *testing.T) {
	var off *spans // untraced: every call is a no-op and reads no clock
	if !off.start().IsZero() {
		t.Error("a nil span set read the clock")
	}
	off.end("x", time.Time{})
	off.add("x", time.Second)

	a, b := newSpans(), newSpans()
	a.add("verify", 10*time.Millisecond)
	b.add("verify", 30*time.Millisecond)
	b.add("head", 12*time.Millisecond) // once in many operations
	a.merge(b)
	if got := a.mean("verify"); got != 20*time.Millisecond {
		t.Errorf("mean %v, want 20ms", got)
	}
	if got := a.perOp("head", 1000); got != 12*time.Microsecond {
		t.Errorf("a 12ms span once per 1000 operations costs %v per operation, want 12us", got)
	}
	if a.mean("absent") != 0 || a.perOp("head", 0) != 0 {
		t.Error("absent span or zero operations must read zero")
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	line := "4242 (mon (it) ord) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 100 1000000 500 18446744073709551615"
	got, err := parseStatCPU(line)
	if err != nil || got != 2*time.Second {
		t.Errorf("utime 150 + stime 50 ticks = %v (%v), want 2s", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 120, "higher", -0.20},
		{0, 5, "lower", 0},
	} {
		if got := worsening(c.a, c.b, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%v -> %v, better %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}

func writeSuite(t *testing.T, dir, name string, ops float64, failRatio float64) string {
	t.Helper()
	var s suite
	for rep := 0; rep < 3; rep++ {
		var results []*result
		for _, w := range allWorkloads {
			results = append(results, &result{Workload: w, Correct: true, FailRatio: failRatio, EndToEnd: map[string]float64{
				"setup_s": 2, "ops_per_s": ops + float64(rep), "p50_ms": 1, "server_cpu_us_per_op": 100,
			}})
		}
		s.Runs = append(s.Runs, results)
	}
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	base := writeSuite(t, dir, "a.json", 1000, 0)
	var out bytes.Buffer
	ok, err := compareFiles(&out, base, writeSuite(t, dir, "same.json", 995, 0))
	if err != nil || !ok {
		t.Fatalf("0.5%% slower rejected (%v):\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(allWorkloads)*len(endToEnd) {
		t.Errorf("%d lines, want a header and one row per (metric, workload) pair:\n%s", rows, out.String())
	}
	out.Reset()
	// Half the throughput is past any bound the contract allows (<= 0.25).
	ok, err = compareFiles(&out, base, writeSuite(t, dir, "slow.json", 500, 0))
	if err != nil || ok || !strings.Contains(out.String(), "WORSE by 50.0 % of A") {
		t.Fatalf("50%% slower accepted (%v):\n%s", err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, base, writeSuite(t, dir, "failing.json", 1000, 0.01))
	if err != nil || ok || !strings.Contains(out.String(), "FAILED OPERATIONS") {
		t.Fatalf("failed operations accepted (%v):\n%s", err, out.String())
	}
}

// BENCHMARK.json must stay inside the driver's limits; that every metric
// it declares is really reported, and nothing else, is TestSmoke's job.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 || len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys in %d bytes, want exactly 6 in at most 64 KiB", len(keys), len(raw))
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
		if _, err := newDriver(nil, w.Name, config{}); err != nil {
			t.Errorf("workload %s is declared but not implemented: %v", w.Name, err)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(endToEnd), len(perLayer))
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit or direction %+v", m.Name, m)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric %+v, want setup_s in s, lower", s)
	}
}

func TestContractLine(t *testing.T) {
	r := &result{Correct: true, Attempted: 12, Failed: 0, EndToEnd: map[string]float64{
		"setup_s": 2.5, "ops_per_s": 100, "p50_ms": 1.25, "server_cpu_us_per_op": 80,
	}}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(contractLine(r)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("untraced line is missing keys or metrics: %s", contractLine(r))
	}
	if m := line.Metrics["p50_ms"]; m.Value != 1.25 || m.Unit != "ms" {
		t.Errorf("p50_ms = %+v", m)
	}
	// A traced run reports every per-layer metric instead.
	r.Layers = map[string]float64{"transport.call_us": 250}
	line.Metrics = nil
	if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) || line.Metrics["transport.call_us"].Value != 250 {
		t.Errorf("traced line has %d metrics, want %d", len(line.Metrics), len(perLayer))
	}
}

func TestSelfTestRejectsTampering(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs all five workloads against real daemons on a small log
// with one-second windows: every operation verifies, nothing fails, the
// durability check passes, the budgets add up, and no child process or
// temp directory is left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	cfg := config{seed: 42, leaves: 512, setups: 1, warmup: 200 * time.Millisecond, window: time.Second, traced: time.Second}
	for _, name := range allWorkloads {
		stop := e.guard(workloadDeadline)
		r, err := runWorkload(e, name, cfg)
		stop()
		if err != nil {
			e.dumpLogs()
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", name, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		for _, m := range endToEnd {
			if v := r.EndToEnd[m.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, m.Name, v)
			}
		}
		for _, m := range perLayer {
			if _, ok := r.Layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", name, m.Name)
			}
		}
		if len(r.Layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", name, len(r.Layers), len(perLayer))
		}
		var rows time.Duration
		for _, name := range budgetRows {
			rows += r.Budget.Rows[name]
		}
		if rows+r.Budget.Residual != r.Budget.Mean || r.Budget.Mean <= 0 {
			t.Errorf("%s: budget rows %v + residual %v != mean %v", name, rows, r.Budget.Residual, r.Budget.Mean)
		}
		L := r.Layers
		switch name {
		case "read_hot":
			if L["serve.cache_hit_ratio"] < 0.99 {
				t.Errorf("read_hot: cache hit ratio %v, want >= 0.99", L["serve.cache_hit_ratio"])
			}
		case "read_cold":
			if L["serve.cache_hit_ratio"] > 0.9 || L["aolog.verify_us"] <= 0 {
				t.Errorf("read_cold: hit ratio %v verify %v us", L["serve.cache_hit_ratio"], L["aolog.verify_us"])
			}
		case "append_durable":
			if L["store.lost_acked"] != 0 || L["store.recovery_ms"] <= 0 || L["store.fsyncs_per_leaf"] <= 0 {
				t.Errorf("append_durable: lost %v recovery %v ms fsyncs/leaf %v", L["store.lost_acked"], L["store.recovery_ms"], L["store.fsyncs_per_leaf"])
			}
		case "append_to_audit":
			if L["bls.pairing_checks_per_op"] < 1 || L["client.push_p50_ms"] <= 0 {
				t.Errorf("append_to_audit: pairings/op %v push p50 %v ms", L["bls.pairing_checks_per_op"], L["client.push_p50_ms"])
			}
		case "deploy_audit":
			if L["blsapp.threshold_sign_ms"] <= 0 || L["audit.fetch_status_us"] <= 0 {
				t.Errorf("deploy_audit: sign %v ms fetch_status %v us", L["blsapp.threshold_sign_ms"], L["audit.fetch_status_us"])
			}
		}
	}
	e.close()
	if len(e.procs) != 0 {
		t.Errorf("%d child processes left after close", len(e.procs))
	}
	if _, err := os.Stat(e.work); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s left behind", e.work)
	}
}
