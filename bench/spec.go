package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening as a share of the parent's median
}

// BENCHMARK.json, beside the bench directory, is the one place the
// metrics with their units, directions and bounds are declared; the
// program reads it instead of repeating it. Every workload reports every
// per-layer metric; the ones it does not exercise read zero. Its workload
// list is the gated one — the workloads a driver runs twenty-two times
// each inside its time limit — and may be shorter than allWorkloads, which
// is what a run without -workload goes through.
var (
	gated    []string
	endToEnd []metricDef
	perLayer []metricDef
)

// loadSpec fills the tables above from BENCHMARK.json.
func loadSpec() error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	path := filepath.Join(root, "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	gated = gated[:0]
	for _, w := range spec.Workloads {
		if !slices.Contains(allWorkloads, w.Name) {
			return fmt.Errorf("%s: unknown workload %q", path, w.Name)
		}
		gated = append(gated, w.Name)
	}
	endToEnd, perLayer = spec.EndToEnd, spec.PerLayer
	return nil
}
