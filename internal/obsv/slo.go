package obsv

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// SLO engine. Objectives are declared in the deployment file (or fall
// back to per-daemon defaults) and evaluated against the registry's own
// cumulative instruments: the engine snapshots (total, bad) counts each
// tick and diffs them over multiple windows to compute burn rates —
//
//	burn(w) = (Δbad / Δtotal) / (1 - target)
//
// burn 1.0 means the error budget is being consumed exactly at the
// rate that exhausts it by the end of the SLO period; burn >= 1 over a
// window is "breaching". Multi-window burn (a short window for paging
// speed, a long one for noise immunity) is the standard SRE alerting
// shape. Results are exposed three ways: the /slo endpoint (text +
// JSON), slo_burn_rate{objective,window} gauges, and — for latency
// objectives — trace-exemplar links so a breaching window navigates to
// the /traces ring.

// Objective is one declared service-level objective. Three kinds:
//
//   - "latency": Series names a histogram; an observation is bad when
//     it exceeds Threshold (seconds). Target is the good fraction.
//   - "ratio": BadSeries / TotalSeries name cumulative counters
//     (exact snapshot keys); Target is the good fraction.
//   - "gauge": Series names a gauge sampled each tick; a tick is bad
//     while the value exceeds Threshold.
type Objective struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Series      string  `json:"series,omitempty"`
	BadSeries   string  `json:"bad_series,omitempty"`
	TotalSeries string  `json:"total_series,omitempty"`
	Threshold   float64 `json:"threshold,omitempty"`
	Target      float64 `json:"target"`
}

// Validate rejects malformed objectives early (deployfile load path).
func (o Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("obsv: objective with empty name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("obsv: objective %q: target %v outside (0,1)", o.Name, o.Target)
	}
	switch o.Kind {
	case "latency", "gauge":
		if o.Series == "" {
			return fmt.Errorf("obsv: objective %q: kind %q needs series", o.Name, o.Kind)
		}
	case "ratio":
		if o.BadSeries == "" || o.TotalSeries == "" {
			return fmt.Errorf("obsv: objective %q: kind ratio needs bad_series and total_series", o.Name)
		}
	default:
		return fmt.Errorf("obsv: objective %q: unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// SLOStatus is one objective's evaluated state, as served on /slo.
type SLOStatus struct {
	Name       string             `json:"name"`
	Kind       string             `json:"kind"`
	Series     string             `json:"series,omitempty"`
	Target     float64            `json:"target"`
	Threshold  float64            `json:"threshold,omitempty"`
	Total      float64            `json:"total"`
	Bad        float64            `json:"bad"`
	Compliance float64            `json:"compliance"`
	Burn       map[string]float64 `json:"burn"`
	Breaching  bool               `json:"breaching"`
	Exemplars  []string           `json:"exemplars,omitempty"` // hex trace ids of recent bad observations
}

// sloSample is one cumulative (total, bad) snapshot.
type sloSample struct {
	at    time.Time
	total float64
	bad   float64
}

type sloState struct {
	o       Objective
	samples ring[sloSample] // in tick order
	// gauge-kind accumulators (the gauge itself is not cumulative, so
	// the engine counts ticks and bad ticks).
	gTotal, gBad float64

	status SLOStatus
}

// DefaultSLOWindows are the burn-rate windows: 5m pages fast, 1h
// filters blips.
var DefaultSLOWindows = []time.Duration{5 * time.Minute, time.Hour}

// DefaultSLOInterval is how often daemons snapshot cumulative counts.
const DefaultSLOInterval = 10 * time.Second

// SLOEngine evaluates objectives against a registry.
type SLOEngine struct {
	reg      *Registry
	interval time.Duration
	windows  []time.Duration
	burn     *Family[*FloatGauge]

	mu     sync.Mutex
	states []*sloState
}

// NewSLOEngine creates an engine over objs (invalid objectives are
// dropped — deployfile validation reports them before this point).
// interval <= 0 means DefaultSLOInterval.
func NewSLOEngine(reg *Registry, objs []Objective, interval time.Duration) *SLOEngine {
	if interval <= 0 {
		interval = DefaultSLOInterval
	}
	e := &SLOEngine{reg: reg, interval: interval, windows: DefaultSLOWindows,
		burn: NewFamily(NewFloatGauge, "objective", "window")}
	// Ring depth: enough samples to diff over the longest window.
	depth := int(e.windows[len(e.windows)-1]/interval) + 2
	if depth > 4096 {
		depth = 4096
	}
	for _, o := range objs {
		if o.Validate() != nil {
			continue
		}
		e.states = append(e.states, &sloState{o: o, samples: newRing[sloSample](depth)})
	}
	return e
}

// Register exposes slo_burn_rate{objective,window}.
func (e *SLOEngine) Register(reg *Registry) {
	if e == nil {
		return
	}
	reg.Register("slo_burn_rate", "error-budget burn rate per objective and window", e.burn)
}

// Interval is the tick period the engine's ring is sized for: the
// caller ticks it that often.
func (e *SLOEngine) Interval() time.Duration { return e.interval }

// cumulative reads the objective's (total, bad) cumulative counts from
// the registry.
func (e *SLOEngine) cumulative(st *sloState) (total, bad float64) {
	switch st.o.Kind {
	case "latency":
		h := e.reg.findHistogram(st.o.Series)
		if h == nil {
			return 0, 0
		}
		return float64(h.Count()), float64(h.CountAbove(st.o.Threshold))
	case "ratio":
		return e.reg.Value(st.o.TotalSeries), e.reg.Value(st.o.BadSeries)
	case "gauge":
		st.gTotal++
		if e.reg.Value(st.o.Series) > st.o.Threshold {
			st.gBad++
		}
		return st.gTotal, st.gBad
	}
	return 0, 0
}

// Tick snapshots every objective's cumulative counts at now and
// re-evaluates its burn rates. Ticks must come in time order, about one
// Interval apart.
func (e *SLOEngine) Tick(now time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.states {
		total, bad := e.cumulative(st)
		st.samples.push(sloSample{at: now, total: total, bad: bad})

		status := SLOStatus{
			Name: st.o.Name, Kind: st.o.Kind, Series: st.o.Series,
			Target: st.o.Target, Threshold: st.o.Threshold,
			Total: total, Bad: bad,
			Compliance: 1, Burn: make(map[string]float64, len(e.windows)),
		}
		if total > 0 {
			status.Compliance = (total - bad) / total
		}
		for _, w := range e.windows {
			base := st.sampleBefore(now.Add(-w))
			var burnRate float64
			if dTotal := total - base.total; dTotal > 0 {
				burnRate = ((bad - base.bad) / dTotal) / (1 - st.o.Target)
			}
			status.Burn[fmtWindow(w)] = burnRate
			if burnRate >= 1 {
				status.Breaching = true
			}
			e.burn.With(st.o.Name, fmtWindow(w)).Set(burnRate)
		}
		if st.o.Kind == "latency" && bad > 0 {
			if h := e.reg.findHistogram(st.o.Series); h != nil {
				status.Exemplars = badExemplars(h, st.o.Threshold)
			}
		}
		st.status = status
	}
}

// sampleBefore returns the window baseline: the newest retained sample
// at or before cutoff. While the engine is younger than the window no
// sample is that old and the baseline is the zero sample, so a young
// daemon reports burn since start. Once the ring has dropped samples, a
// window longer than what it retains falls back to the oldest retained
// sample. Ticks arrive in time order, so the ring is sorted.
func (st *sloState) sampleBefore(cutoff time.Time) sloSample {
	oldest := st.samples.last(st.samples.kept())
	if oldest.at.After(cutoff) {
		if st.samples.n > len(st.samples.buf) {
			return oldest
		}
		return sloSample{}
	}
	for i := 1; ; i++ {
		if s := st.samples.last(i); !s.at.After(cutoff) {
			return s
		}
	}
}

// badExemplars pulls trace ids of retained observations above the
// threshold, newest first.
func badExemplars(h *Histogram, threshold float64) []string {
	var out []string
	seen := make(map[string]bool)
	for _, ex := range h.Exemplars() {
		if ex.Value <= threshold || !ex.Trace.Valid() {
			continue
		}
		id := hex.EncodeToString(ex.Trace.TraceID[:])
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
		if len(out) == 4 {
			break
		}
	}
	return out
}

// Status returns every objective's evaluated state (last tick).
func (e *SLOEngine) Status() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.states))
	for _, st := range e.states {
		if st.status.Name == "" {
			// Not ticked yet: report the declaration with zero burns.
			st.status = SLOStatus{
				Name: st.o.Name, Kind: st.o.Kind, Series: st.o.Series,
				Target: st.o.Target, Threshold: st.o.Threshold,
				Compliance: 1, Burn: map[string]float64{},
			}
		}
		out = append(out, st.status)
	}
	return out
}

// Handler serves /slo: a JSON array with ?format=json, a tabwriter
// table otherwise. Breaching latency objectives carry exemplar trace
// ids — paste one into /traces to see the offending requests.
func (e *SLOEngine) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		statuses := e.Status()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if statuses == nil {
				statuses = []SLOStatus{}
			}
			json.NewEncoder(w).Encode(statuses)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "OBJECTIVE\tKIND\tTARGET\tCOMPLIANCE\tBURN\tSTATE\tEXEMPLARS")
		for _, s := range statuses {
			burns := make([]string, 0, len(s.Burn))
			for _, win := range sortedWindows(s.Burn) {
				burns = append(burns, fmt.Sprintf("%s=%.2f", win, s.Burn[win]))
			}
			state := "ok"
			if s.Breaching {
				state = "BREACHING"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%s\t%s\n",
				s.Name, s.Kind, s.Target, s.Compliance,
				strings.Join(burns, " "), state, strings.Join(s.Exemplars, ","))
		}
		tw.Flush()
	}
}

func sortedWindows(burn map[string]float64) []string {
	ks := make([]string, 0, len(burn))
	for k := range burn {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// fmtWindow renders a window compactly ("5m", "1h") for label values.
func fmtWindow(d time.Duration) string {
	switch {
	case d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	case d%time.Second == 0:
		return fmt.Sprintf("%ds", d/time.Second)
	}
	return d.String()
}

// DefaultMonitorSLOs are the objectives a monitord runs when the
// deployment file declares none: proof serving latency, WAL fsync
// latency, push-queue lag, and proof-path availability.
func DefaultMonitorSLOs() []Objective {
	return []Objective{
		{Name: "proof-serve-p99", Kind: "latency", Series: `rpc_latency_seconds{kind="proof"}`, Threshold: 0.016384, Target: 0.99},
		{Name: "wal-fsync", Kind: "latency", Series: "store_wal_fsync_seconds", Threshold: 0.131072, Target: 0.99},
		{Name: "push-lag", Kind: "gauge", Series: "serve_push_pending", Threshold: 1024, Target: 0.99},
		{Name: "availability", Kind: "ratio", BadSeries: `rpc_errors_total{kind="proof"}`, TotalSeries: `rpc_requests_total{kind="proof"}`, Target: 0.999},
	}
}

// DefaultWitnessSLOs are the auditord fallbacks: ingest verification
// latency and frontier lag.
func DefaultWitnessSLOs() []Objective {
	return []Objective{
		{Name: "ingest-verify-p99", Kind: "latency", Series: "gossip_verify_seconds", Threshold: 0.065536, Target: 0.99},
		{Name: "frontier-lag", Kind: "gauge", Series: "gossip_frontier_lag_max", Threshold: 0, Target: 0.99},
	}
}
