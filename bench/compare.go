package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// medians reduces a result file to the median of each end-to-end metric
// per workload over its repetitions, and the worst fail ratio seen.
func medians(s *suite) (map[string]map[string]float64, map[string]float64) {
	med := map[string]map[string]float64{}
	for w, metrics := range spreads(s.Runs) {
		med[w] = map[string]float64{}
		for name, sp := range metrics {
			med[w][name] = sp.Median
		}
	}
	fail := map[string]float64{}
	for _, results := range s.Runs {
		for _, r := range results {
			fail[r.Workload] = max(fail[r.Workload], r.FailRatio)
		}
	}
	return med, fail
}

// worsening is how much worse b is than base a, as a share of a, in the
// metric's own direction; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles applies the bounds of BENCHMARK.json to every (end-to-end
// metric, workload) pair of two result files: A is the base, B the
// candidate. It prints one row per pair and reports whether B stays
// within every bound and neither file has a failed operation.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var a, b suite
	for path, v := range map[string]*suite{pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	ma, fa := medians(&a)
	mb, fb := medians(&b)
	ok := true
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %8s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "verdict")
	for _, name := range allWorkloads {
		if ma[name] == nil || mb[name] == nil {
			// A gated workload must be in both files; another one is compared
			// where both have it.
			if slices.Contains(gated, name) || (ma[name] == nil) != (mb[name] == nil) {
				fmt.Fprintf(w, "%-16s missing from a result file\n", name)
				ok = false
			}
			continue
		}
		for _, m := range endToEnd {
			va, vb := ma[name][m.Name], mb[name][m.Name]
			worse := worsening(va, vb, m.Better)
			verdict := "ok"
			if worse > m.Bound {
				verdict = fmt.Sprintf("WORSE by %.1f %% of A (bound %.0f %%)", 100*worse, 100*m.Bound)
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %8.3f  %s\n", name, m.Name, va, vb, ratio(vb, va), verdict)
		}
		if fa[name] > 0 || fb[name] > 0 {
			fmt.Fprintf(w, "%-16s fail_ratio A %.4f B %.4f: FAILED OPERATIONS\n", name, fa[name], fb[name])
			ok = false
		}
	}
	return ok, nil
}
