package obsv

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Health is the daemon's liveness/readiness surface. Liveness is
// unconditional (the process answering /healthz IS the signal);
// readiness runs named probes, and ANY failing probe makes the daemon
// not-ready. This is how fail-closed states become operationally
// visible: the serve tier's poison probe and the monitor's sticky
// persistence error both flip /readyz to 503 instead of silently
// refusing RPCs.
// Alongside readiness, Health tracks *degraded* states: named probes
// (installed by stall watchdogs) that mark the daemon impaired without
// failing it. A degraded daemon keeps /readyz at 200 — load balancers
// keep routing to it — but the state is visible in the /readyz body and
// the process_degraded gauge. Degraded is the early warning; readiness
// is the circuit breaker.
type Health struct {
	started  time.Time
	ready    probeSet
	degraded probeSet
}

// probeSet is a named set of checks, run in name order. Health keeps
// two: readiness and degraded states.
type probeSet struct {
	mu   sync.Mutex
	list []probe // sorted by name
}

type probe struct {
	name  string
	check func() error
}

// set installs (or replaces) the named probe.
func (p *probeSet) set(name string, check func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, found := slices.BinarySearchFunc(p.list, name, func(q probe, name string) int {
		return strings.Compare(q.name, name)
	})
	if found {
		p.list[i].check = check
		return
	}
	p.list = slices.Insert(p.list, i, probe{name, check})
}

// probes copies the set out from under its lock, so checks run unlocked.
func (p *probeSet) probes() []probe {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.list)
}

// NewHealth creates an empty health surface (always live, ready until a
// probe says otherwise).
func NewHealth() *Health { return &Health{started: time.Now()} }

// Set installs (or replaces) a named readiness probe. A probe returns
// nil when its subsystem can serve.
func (h *Health) Set(name string, probe func() error) { h.ready.set(name, probe) }

// SetDegraded installs (or replaces) a named degraded-state probe. A
// failing degraded probe does NOT affect Ready(); it only shows in
// Report, DegradedStates, and process_degraded.
func (h *Health) SetDegraded(name string, probe func() error) { h.degraded.set(name, probe) }

// DegradedStates returns the currently failing degraded probes
// (name -> error). Empty map = fully healthy.
func (h *Health) DegradedStates() map[string]error {
	out := make(map[string]error)
	for _, p := range h.degraded.probes() {
		if err := p.check(); err != nil {
			out[p.name] = err
		}
	}
	return out
}

// Ready runs every probe and returns the first failure (nil = ready).
func (h *Health) Ready() error {
	for _, p := range h.ready.probes() {
		if err := p.check(); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// Report renders every probe's state, one "name: ok|error" line each,
// readiness first, then the degraded probes.
func (h *Health) Report() string {
	var b strings.Builder
	h.ready.report(&b, "")
	h.degraded.report(&b, "degraded ")
	return b.String()
}

// report writes one "<prefix>name: ok|error" line per probe.
func (p *probeSet) report(b *strings.Builder, prefix string) {
	for _, q := range p.probes() {
		if err := q.check(); err != nil {
			fmt.Fprintf(b, "%s%s: %v\n", prefix, q.name, err)
		} else {
			fmt.Fprintf(b, "%s%s: ok\n", prefix, q.name)
		}
	}
}

// Uptime reports how long this health surface has existed.
func (h *Health) Uptime() time.Duration { return time.Since(h.started) }

// Register exposes readiness and uptime as metrics, so a scrape alone
// shows a not-ready daemon (readyz 0/1 mirrors the /readyz endpoint).
func (h *Health) Register(reg *Registry) {
	reg.Register("process_ready", "1 when every readiness probe passes", GaugeFunc(func() float64 {
		if h.Ready() != nil {
			return 0
		}
		return 1
	}))
	reg.Register("process_uptime_seconds", "seconds since daemon start", GaugeFunc(func() float64 {
		return h.Uptime().Seconds()
	}))
	reg.Register("process_degraded", "number of failing degraded-state probes (ready but impaired)", GaugeFunc(func() float64 {
		return float64(len(h.DegradedStates()))
	}))
}
