package obsv

import (
	"fmt"
	"io"
	"sort"
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
// Labeled series use the canonical `name{key="value"}` spelling in both
// formats; %q escapes backslashes, quotes, and newlines exactly as the
// Prometheus text rules require.

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	entries := make([]*entry, len(r.order))
	copy(entries, r.order)
	r.mu.RUnlock()

	var b strings.Builder
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, e.help)
		}
		switch {
		case e.c != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.c.Value())
		case e.cf != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.cf())
		case e.g != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", e.name, e.name, e.g.Value())
		case e.gf != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", e.name, e.name, fmtFloat(e.gf()))
		case e.h != nil:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", e.name)
			writePromHistogram(&b, e.name, "", "", e.h)
		case e.cv != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n", e.name)
			for _, k := range e.cv.labelValues() {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", e.name, e.label, k, e.cv.With(k).Value())
			}
		case e.gv != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", e.name)
			for _, k := range e.gv.labelValues() {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", e.name, e.label, k, e.gv.With(k).Value())
			}
		case e.hv != nil:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", e.name)
			for _, k := range e.hv.labelValues() {
				writePromHistogram(&b, e.name, e.label, k, e.hv.With(k))
			}
		case e.gv2 != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", e.name)
			for _, k := range e.gv2.labelValues() {
				fmt.Fprintf(&b, "%s{%s=%q,%s=%q} %s\n", e.name,
					e.label, k[0], e.label2, k[1], fmtFloat(e.gv2.With(k[0], k[1]).Value()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromHistogram(b *strings.Builder, name, labelKey, labelVal string, h *Histogram) {
	cums, count, sum := h.snapshot()
	extra := ""
	if labelKey != "" {
		extra = fmt.Sprintf("%s=%q,", labelKey, labelVal)
	}
	for i, cum := range cums {
		le := "+Inf"
		if i < len(h.bounds) {
			le = fmtFloat(h.bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, extra, le, cum)
	}
	suffix := ""
	if labelKey != "" {
		suffix = fmt.Sprintf("{%s=%q}", labelKey, labelVal)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, fmtFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, count)
	// Observations above the top bound, as their own (untyped) series:
	// nonzero overflow means the bucket layout clips this workload.
	fmt.Fprintf(b, "%s_overflow%s %d\n", name, suffix, h.Overflow())
}

func (v *CounterVec) labelValues() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ks := make([]string, len(v.ks))
	copy(ks, v.ks)
	sort.Strings(ks)
	return ks
}

func (v *GaugeVec) labelValues() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ks := make([]string, len(v.ks))
	copy(ks, v.ks)
	sort.Strings(ks)
	return ks
}

func (v *HistogramVec) labelValues() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ks := make([]string, len(v.ks))
	copy(ks, v.ks)
	sort.Strings(ks)
	return ks
}

func (v *GaugeVec2) labelValues() []gv2Key {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ks := make([]gv2Key, len(v.ks))
	copy(ks, v.ks)
	sort.Slice(ks, func(i, j int) bool {
		if ks[i][0] != ks[j][0] {
			return ks[i][0] < ks[j][0]
		}
		return ks[i][1] < ks[j][1]
	})
	return ks
}

// Snapshot flattens the registry into name -> value. Labeled series use
// `name{key="value"}` keys; histograms flatten to _count, _sum, _max,
// _p50, _p99, and _p999.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.RLock()
	entries := make([]*entry, len(r.order))
	copy(entries, r.order)
	r.mu.RUnlock()

	out := make(map[string]float64, len(entries)*2)
	for _, e := range entries {
		switch {
		case e.c != nil:
			out[e.name] = float64(e.c.Value())
		case e.cf != nil:
			out[e.name] = float64(e.cf())
		case e.g != nil:
			out[e.name] = float64(e.g.Value())
		case e.gf != nil:
			out[e.name] = e.gf()
		case e.h != nil:
			snapHistogram(out, e.name, e.h)
		case e.cv != nil:
			for _, k := range e.cv.labelValues() {
				out[fmt.Sprintf("%s{%s=%q}", e.name, e.label, k)] = float64(e.cv.With(k).Value())
			}
		case e.gv != nil:
			for _, k := range e.gv.labelValues() {
				out[fmt.Sprintf("%s{%s=%q}", e.name, e.label, k)] = float64(e.gv.With(k).Value())
			}
		case e.hv != nil:
			for _, k := range e.hv.labelValues() {
				snapHistogram(out, fmt.Sprintf("%s{%s=%q}", e.name, e.label, k), e.hv.With(k))
			}
		case e.gv2 != nil:
			for _, k := range e.gv2.labelValues() {
				key := fmt.Sprintf("%s{%s=%q,%s=%q}", e.name, e.label, k[0], e.label2, k[1])
				out[key] = e.gv2.With(k[0], k[1]).Value()
			}
		}
	}
	return out
}

func snapHistogram(out map[string]float64, name string, h *Histogram) {
	out[name+"_count"] = float64(h.Count())
	out[name+"_sum"] = h.Sum()
	out[name+"_max"] = h.Max()
	out[name+"_overflow"] = float64(h.Overflow())
	out[name+"_p50"] = h.Quantile(0.50)
	out[name+"_p99"] = h.Quantile(0.99)
	out[name+"_p999"] = h.Quantile(0.999)
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
	switch {
	case e == nil:
		return nil
	case e.h != nil:
		return e.h
	case e.hv != nil && labelVal != "":
		// Only return an already-materialized label; With() would mint
		// an empty histogram for a typo'd objective.
		e.hv.mu.RLock()
		h := e.hv.m[labelVal]
		e.hv.mu.RUnlock()
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
