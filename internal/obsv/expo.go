package obsv

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Exposition. Two formats from one registry:
//
//   - WritePrometheus emits the Prometheus text format (counters,
//     gauges, and full cumulative histogram series) for scraping.
//   - Snapshot flattens everything into a map[string]float64 — the JSON
//     form served by /metrics.json, and what tests assert against.
//     Histograms flatten to name_count, name_sum, name_max, and
//     interpolated name_p50 / name_p99 / name_p999.
//
// Both walk the registry once and let each entry's instrument write
// itself (the Metric methods below); a Family writes each member
// through the member's own methods. Labeled series use the canonical
// `name{key="value"}` spelling in both formats; %q escapes backslashes,
// quotes, and newlines exactly as the Prometheus text rules require.

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// entries copies the registration order out from under the lock.
func (r *Registry) entries() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.order)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, e := range r.entries() {
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, e.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.m.kind())
		e.m.prom(&b, e.name, "")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot flattens the registry into name -> value. Labeled series use
// `name{key="value"}` keys; histograms flatten to _count, _sum, _max,
// _p50, _p99, and _p999.
func (r *Registry) Snapshot() map[string]float64 {
	entries := r.entries()
	out := make(map[string]float64, len(entries)*2)
	for _, e := range entries {
		e.m.snap(out, e.name)
	}
	return out
}

// sample writes one `name{labels} value` line.
func sample(b *strings.Builder, name, labels, value string) {
	fmt.Fprintf(b, "%s%s %s\n", name, braced(labels), value)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func (c *Counter) kind() string { return "counter" }
func (c *Counter) prom(b *strings.Builder, name, labels string) {
	sample(b, name, labels, strconv.FormatUint(c.Value(), 10))
}
func (c *Counter) snap(out map[string]float64, series string) { out[series] = float64(c.Value()) }

func (f CounterFunc) kind() string { return "counter" }
func (f CounterFunc) prom(b *strings.Builder, name, labels string) {
	sample(b, name, labels, strconv.FormatUint(f(), 10))
}
func (f CounterFunc) snap(out map[string]float64, series string) { out[series] = float64(f()) }

func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) prom(b *strings.Builder, name, labels string) {
	sample(b, name, labels, strconv.FormatInt(g.Value(), 10))
}
func (g *Gauge) snap(out map[string]float64, series string) { out[series] = float64(g.Value()) }

func (g *FloatGauge) kind() string { return "gauge" }
func (g *FloatGauge) prom(b *strings.Builder, name, labels string) {
	sample(b, name, labels, fmtFloat(g.Value()))
}
func (g *FloatGauge) snap(out map[string]float64, series string) { out[series] = g.Value() }

func (f GaugeFunc) kind() string { return "gauge" }
func (f GaugeFunc) prom(b *strings.Builder, name, labels string) {
	sample(b, name, labels, fmtFloat(f()))
}
func (f GaugeFunc) snap(out map[string]float64, series string) { out[series] = f() }

func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) prom(b *strings.Builder, name, labels string) {
	cums, count, sum := h.snapshot()
	le := labels
	if le != "" {
		le += ","
	}
	for i, cum := range cums {
		bound := "+Inf"
		if i < len(h.bounds) {
			bound = fmtFloat(h.bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, le, bound, cum)
	}
	sample(b, name+"_sum", labels, fmtFloat(sum))
	sample(b, name+"_count", labels, strconv.FormatUint(count, 10))
	// Observations above the top bound, as their own (untyped) series:
	// nonzero overflow means the bucket layout clips this workload.
	sample(b, name+"_overflow", labels, strconv.FormatUint(h.Overflow(), 10))
}
func (h *Histogram) snap(out map[string]float64, series string) {
	out[series+"_count"] = float64(h.Count())
	out[series+"_sum"] = h.Sum()
	out[series+"_max"] = h.Max()
	out[series+"_overflow"] = float64(h.Overflow())
	out[series+"_p50"] = h.Quantile(0.50)
	out[series+"_p99"] = h.Quantile(0.99)
	out[series+"_p999"] = h.Quantile(0.999)
}

// A family's TYPE is its members'; kind never dereferences, so the zero
// member answers.
func (f *Family[M]) kind() string {
	var m M
	return m.kind()
}
func (f *Family[M]) prom(b *strings.Builder, name, _ string) {
	f.each(func(labels string, m M) { m.prom(b, name, labels) })
}
func (f *Family[M]) snap(out map[string]float64, series string) {
	f.each(func(labels string, m M) { m.snap(out, series+braced(labels)) })
}

// each visits the members in label-value order with their rendered
// `key="value",...` lists.
func (f *Family[M]) each(visit func(labels string, m M)) {
	f.mu.RLock()
	ks := slices.Clone(f.ks)
	f.mu.RUnlock()
	slices.SortFunc(ks, slices.Compare[[]string])
	for _, values := range ks {
		var b strings.Builder
		for i, v := range values {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", f.labels[i], v)
		}
		visit(b.String(), f.With(values...))
	}
}

// Value returns the snapshot value for an exact series key (0 when
// absent) — a convenience for tests and in-process consumers like the
// serve tier's hit-rate computation.
func (r *Registry) Value(series string) float64 {
	return r.Snapshot()[series]
}

// findHistogram resolves a series key (`name` or `name{key="value"}`)
// to the underlying histogram, so the SLO engine can read bucket
// counts and exemplars rather than flattened values. Returns nil when
// the series is absent or not a histogram.
func (r *Registry) findHistogram(series string) *Histogram {
	name, labelVal := splitSeries(series)
	r.mu.RLock()
	e := r.byName[name]
	r.mu.RUnlock()
	if e == nil {
		return nil
	}
	switch m := e.m.(type) {
	case *Histogram:
		return m
	case *Family[*Histogram]:
		// Only return an already-materialized label; With() would mint
		// an empty histogram for a typo'd objective.
		m.mu.RLock()
		h := m.m[labelVal]
		m.mu.RUnlock()
		return h
	}
	return nil
}

// splitSeries parses `name{key="value"}` into (name, value); a bare
// name returns ("", value) empty.
func splitSeries(series string) (name, labelVal string) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series, ""
	}
	name = series[:i]
	rest := series[i:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return name, ""
	}
	k := strings.IndexByte(rest[j+1:], '"')
	if k < 0 {
		return name, ""
	}
	return name, rest[j+1 : j+1+k]
}
