// Command bench is the repository's end-to-end benchmark: it builds the
// unmodified monitord and trustdomaind, boots them as child processes
// with their shipped defaults, drives them over TCP loopback through the
// client code dtclient uses, verifies every response client-side, and
// reports end-to-end metrics plus a per-layer latency budget measured
// from outside the daemons. See README.md.
//
//	go run -C bench .                                  all five workloads
//	go run -C bench . -workload read_hot -seed 7       one workload
//	go run -C bench . -workload read_hot -seconds 10 -trace 0|1
//	go run -C bench . -repeat 5 -out calibration.json  run-to-run spread
//	go run -C bench . -compare A.json B.json           apply the bounds
//	go run -C bench . -selftest                        tamper checks only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// Shape of a run. A window of -seconds is preceded by a warm-up of a
// fifth of it (at most defaultWarmup); with -trace -1 a traced window of
// defaultTraced follows on the same daemons.
const (
	defaultSeconds = 25
	defaultWarmup  = 2 * time.Second
	defaultTraced  = 10 * time.Second
	seededLeaves   = 8192
	setupsPerRun   = 3
	// workloadDeadline is the hard wall-clock cap on one workload.
	workloadDeadline = 170 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Uint64("seed", 1, "drives index choice, nonces and messages")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", -1, "0: untraced window only, end-to-end metrics; 1: the window split into an untraced and a traced half, per-layer metrics; -1: the full untraced window, then a traced one")
		out      = flag.String("out", "", "write the results as JSON to this file")
		repeat   = flag.Int("repeat", 1, "run the selection this many times (seed, seed+1, ...) and report the spread of every end-to-end metric")
		selftest = flag.Bool("selftest", false, "only prove the checks are not vacuous: tampered proofs and signatures must fail")
		compare  = flag.Bool("compare", false, "compare two result files (the arguments) under the bounds of BENCHMARK.json")
	)
	flag.Parse()
	if err := loadSpec(); err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	// From here on everything runs on one CPU (see pinToOneCPU); on a
	// machine with more, this call does not return but re-executes. Where
	// the sandbox forbids it the run goes ahead unpinned, and says so.
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: warning: not pinned to one CPU, numbers will be noisier:", err)
	}
	if err := selfTest(); err != nil {
		fatal(fmt.Errorf("self-test: %w", err))
	}
	if *selftest {
		fmt.Println("self-test: every tampered proof, head and signature was rejected")
		return
	}

	names := allWorkloads
	if *workload != "" {
		names = []string{*workload}
	}
	cfg := config{seed: *seed, leaves: seededLeaves, setups: setupsPerRun, floor: setupFloor}
	window := time.Duration(*seconds) * time.Second
	switch *trace {
	case 0:
		cfg.window = window
	case 1:
		cfg.window, cfg.traced = window/2, window/2
	default:
		cfg.window, cfg.traced = window, defaultTraced
	}
	cfg.warmup = min(defaultWarmup, window/5)

	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	code := 0
	func() {
		// Every exit path below — return, panic, signal, deadline — ends in
		// e.close: no daemon and no temp dir outlives the run.
		defer e.close()
		code = run(e, names, cfg, *repeat, *out)
	}()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// suite is what -out writes: every workload's report for each repetition,
// and with -repeat the spread of each end-to-end metric.
type suite struct {
	Runs   [][]*result                    `json:"runs"`
	Spread map[string]map[string]spreadOf `json:"spread,omitempty"`
}

// spreadOf is the run-to-run repeatability of one metric on one workload.
type spreadOf struct {
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr_over_median"`
	Values []float64 `json:"values"`
}

func run(e *env, names []string, cfg config, repeat int, out string) int {
	code := 0
	var s suite
	for rep := 0; rep < repeat; rep++ {
		var results []*result
		for _, name := range names {
			c := cfg
			c.seed += uint64(rep)
			stop := e.guard(workloadDeadline)
			res, err := runWorkload(e, name, c)
			stop()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				e.dumpLogs()
				return 1
			}
			report(os.Stdout, res)
			if !res.Correct {
				code = 1
			}
			results = append(results, res)
		}
		s.Runs = append(s.Runs, results)
	}
	if repeat > 1 {
		s.Spread = spreads(s.Runs)
		printSpreads(s.Spread)
	}
	if out != "" {
		b, err := json.MarshalIndent(&s, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing results:", err)
			return 1
		}
	}
	if len(names) == 1 && repeat == 1 && code == 0 {
		// The machine-readable line goes last.
		fmt.Println(contractLine(s.Runs[0][0]))
	}
	return code
}

// report prints one workload's metrics by name with their units.
func report(w *os.File, r *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  attempted %d  failed %d  fail_ratio %.4f  correct %v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.FailRatio, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
	}
	if r.Layers == nil {
		return
	}
	fmt.Fprintln(w, "  -- per layer (traced window)")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, r.Layers[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "  -- latency budget of the primary operation\n%s", r.Budget)
}

// contractLine is the single JSON object a driver reads from the last
// line: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if r.Layers != nil {
		defs, vals = perLayer, r.Layers
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(b)
}

// spreads computes, per workload and end-to-end metric, the median and
// the interquartile range over the repetitions.
func spreads(runs [][]*result) map[string]map[string]spreadOf {
	values := map[string]map[string][]float64{}
	for _, results := range runs {
		for _, r := range results {
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.EndToEnd {
				values[r.Workload][name] = append(values[r.Workload][name], v)
			}
		}
	}
	out := map[string]map[string]spreadOf{}
	for w, metrics := range values {
		out[w] = map[string]spreadOf{}
		for name, v := range metrics {
			out[w][name] = spreadOf{Median: medianF(v), IQR: spread(v), Values: v}
		}
	}
	return out
}

func printSpreads(s map[string]map[string]spreadOf) {
	fmt.Println("\n== run-to-run spread (interquartile range / median)")
	var ws []string
	for w := range s {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	for _, w := range ws {
		for _, m := range endToEnd {
			sp := s[w][m.Name]
			flag := ""
			if sp.IQR > m.Bound/3 {
				flag = "  > bound/3"
			}
			fmt.Printf("  %-16s %-22s median %12.4f %-4s spread %.4f (bound %.2f)%s\n",
				w, m.Name, sp.Median, m.Unit, sp.IQR, m.Bound, flag)
		}
	}
}
