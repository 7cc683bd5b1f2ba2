package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// snapshot is one scrape of a daemon's /metrics.json: the flattened
// series map obsv.Registry.Snapshot produces (labelled series are keyed
// `name{label="value"}`, histograms flatten to name_sum, name_count, ...).
type snapshot map[string]float64

func scrape(metricsAddr string) (snapshot, error) {
	client := &http.Client{Timeout: opTimeout}
	resp, err := client.Get("http://" + metricsAddr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics.json: %s", resp.Status)
	}
	var s snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return s, nil
}

// delta is the change of every series between two scrapes of one daemon.
// A series absent from the earlier scrape (a label first used inside the
// window) counts from zero.
type delta struct{ before, after snapshot }

func (d delta) of(series string) float64 { return d.after[series] - d.before[series] }

// histSeries names the flattened sum/count keys of a histogram: for a
// labelled vector the suffix goes after the label set, as in
// `rpc_latency_seconds{kind="proof"}_sum`.
func histSeries(name, label, value string) (sum, count string) {
	base := name
	if label != "" {
		base = fmt.Sprintf("%s{%s=%q}", name, label, value)
	}
	return base + "_sum", base + "_count"
}

// histMean is the mean observation (in seconds, as a duration) a
// histogram recorded inside the window, and how many it recorded.
func (d delta) histMean(name, label, value string) (time.Duration, float64) {
	sum, count := histSeries(name, label, value)
	n := d.of(count)
	if n <= 0 {
		return 0, 0
	}
	return time.Duration(d.of(sum) / n * float64(time.Second)), n
}

// histTotal is the total time a histogram of seconds accumulated inside
// the window.
func (d delta) histTotal(name, label, value string) time.Duration {
	sum, _ := histSeries(name, label, value)
	return time.Duration(d.of(sum) * float64(time.Second))
}

// ratio is num/den, or zero when the denominator is.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
