package blsapp

import (
	"time"

	"repro/internal/obsv"
)

// Coordinator-side ceremony instruments (package-level: ceremonies are
// driven through package functions). Phase values: 0 idle, 1 building
// frames, 2 invoking domains, 3 verifying acknowledgements.
const (
	ceremonyIdle = iota
	ceremonyFrames
	ceremonyInvoke
	ceremonyAcks
)

var ceremonyObs = struct {
	ceremonies obsv.Counter // RunRefreshCeremony calls
	failures   obsv.Counter // ceremonies that returned an error (re-drive required)
	phase      obsv.Gauge
	duration   *obsv.Histogram
}{duration: obsv.NewHistogram(nil)}

// CeremonyDiagnostics is where one coordinator's ceremonies report. The
// flight recorder sees every phase transition and the outcome; the
// watchdog is armed for the ceremony's whole non-idle span, so a
// ceremony wedged on an unresponsive domain trips it instead of hanging
// silently. The zero value reports nowhere: it is what a coordinator
// without a diagnosis plane (dtclient, tests) passes.
type CeremonyDiagnostics struct {
	Flight   *obsv.FlightRecorder
	Watchdog *obsv.Watchdog
}

// event notes a ceremony phase transition in the flight ring.
func (d CeremonyDiagnostics) event(kind, detail string, value uint64) {
	d.Flight.Record("blsapp", kind, detail, value, obsv.TraceContext{})
}

// RegisterCeremonyMetrics exposes the coordinator's refresh-ceremony
// series on reg under blsapp_ceremony_*.
func RegisterCeremonyMetrics(reg *obsv.Registry) {
	reg.Register("blsapp_ceremonies_total", "refresh ceremonies driven", &ceremonyObs.ceremonies)
	reg.Register("blsapp_ceremony_failures_total", "refresh ceremonies that ended incomplete", &ceremonyObs.failures)
	reg.Register("blsapp_ceremony_phase", "0 idle, 1 frames, 2 invoke, 3 acks", &ceremonyObs.phase)
	reg.Register("blsapp_ceremony_seconds", "refresh ceremony wall time", ceremonyObs.duration)
}

// shareObs holds one domain's refresh instruments.
type shareObs struct {
	refreshes     obsv.Counter // epoch transitions committed
	replays       obsv.Counter // idempotent ceremony replays acknowledged
	staleRejected obsv.Counter // frames for a wrong (stale or skipped) epoch
	rejected      obsv.Counter // frames refused for any other reason
}

// RegisterMetrics exposes this share state's series on reg under
// blsapp_share_*.
func (st *ShareState) RegisterMetrics(reg *obsv.Registry) {
	o := &st.obs
	reg.Register("blsapp_share_refreshes_total", "epoch transitions committed", &o.refreshes)
	reg.Register("blsapp_share_replays_total", "idempotent ceremony replays acknowledged", &o.replays)
	reg.Register("blsapp_share_stale_epoch_rejections_total", "refresh frames for a wrong epoch", &o.staleRejected)
	reg.Register("blsapp_share_rejections_total", "refresh frames refused (auth or validation)", &o.rejected)
	reg.Register("blsapp_share_epoch", "current refresh epoch of the held share", obsv.GaugeFunc(func() float64 {
		return float64(st.Epoch())
	}))
}

// done closes a ceremony's span: phase back to idle, watchdog disarmed,
// duration and outcome recorded.
func (d CeremonyDiagnostics) done(start time.Time, err error) {
	ceremonyObs.phase.Set(ceremonyIdle)
	d.Watchdog.Done()
	ceremonyObs.duration.Observe(time.Since(start).Seconds())
	if err != nil {
		ceremonyObs.failures.Inc()
		d.event("ceremony_failed", err.Error(), 0)
		return
	}
	d.event("ceremony_done", "", uint64(time.Since(start).Nanoseconds()))
}
