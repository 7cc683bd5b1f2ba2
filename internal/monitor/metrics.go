package monitor

import "repro/internal/obsv"

// SetDiagnostics installs the daemon's flight recorder on the monitor
// and forwards it — with the WAL-fsync watchdog — to the underlying
// store. No-op pieces are fine: either argument may be nil, and an
// in-memory monitor simply has no store to forward to.
func (m *Monitor) SetDiagnostics(fr *obsv.FlightRecorder, fsyncDog *obsv.Watchdog) {
	m.flight.Store(fr)
	if m.store != nil {
		m.store.SetDiagnostics(fr, fsyncDog)
	}
}

// setPersistErrLocked records the first best-effort persistence failure
// (sticky, surfaced by Err) and notes it in the flight ring. Caller
// holds m.mu.
func (m *Monitor) setPersistErrLocked(err error) {
	if m.persistErr == nil {
		m.persistErr = err
		m.flight.Load().Record("monitor", "persist_failed", err.Error(), 0, obsv.TraceContext{})
	}
}

// monitorObs holds the monitor's own instruments; counters are bumped
// inline on the paths they measure (single atomic adds under the lock
// already held) and exposed via RegisterMetrics.
type monitorObs struct {
	appendedLeaves obsv.Counter    // envelopes + slashing records appended to the log
	rejected       obsv.Counter    // submissions refused before reaching the log
	alerts         obsv.Counter    // misbehavior proofs raised
	equivocations  obsv.Counter    // gossip equivocation convictions recorded
	headsSignedBLS obsv.Counter    // tree heads signed
	headSign       *obsv.Histogram // time to sign one tree head (set by the constructors)
}

// RegisterMetrics exposes the monitor's series (and, for a persistent
// monitor, its store's) on reg under monitor_* / store_* names.
func (m *Monitor) RegisterMetrics(reg *obsv.Registry) {
	o := &m.obs
	reg.Register("monitor_appends_total", "leaves appended to the public log", &o.appendedLeaves)
	reg.Register("monitor_rejected_total", "submissions rejected before the log", &o.rejected)
	reg.Register("monitor_alerts_total", "misbehavior proofs raised", &o.alerts)
	reg.Register("monitor_equivocations_total", "log-equivocation convictions recorded", &o.equivocations)
	reg.Register("monitor_heads_signed_bls_total", "BLS tree heads signed", &o.headsSignedBLS)
	reg.Register("monitor_head_sign_seconds", "time to BLS-sign one tree head", o.headSign)
	reg.Register("monitor_log_size", "leaves in the public log", obsv.GaugeFunc(func() float64 {
		return float64(m.Len())
	}))
	reg.Register("monitor_persist_failed", "1 after a best-effort persistence write has failed", obsv.GaugeFunc(func() float64 {
		if m.Err() != nil {
			return 1
		}
		return 0
	}))
	if m.store != nil {
		m.store.RegisterMetrics(reg)
	}
}

// Err reports the sticky best-effort persistence failure (nil while
// healthy). Daemons wire it into their readiness probes; it was
// previously surfaced only at Close.
func (m *Monitor) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.persistErr
}
