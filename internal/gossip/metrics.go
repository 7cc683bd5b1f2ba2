package gossip

import (
	"time"

	"repro/internal/obsv"
)

// gossipObs holds the witness's own instruments. They exist from
// NewWitness on (so the hot paths never nil-check) and are bound to a
// registry by RegisterMetrics.
type gossipObs struct {
	ingested     obsv.Counter // heads presented to IngestBatch
	accepted     obsv.Counter // heads consistency-verified and cosigned
	rejected     obsv.Counter // heads refused outright (unknown source, bad signature)
	cosigns      obsv.Counter // cosignatures this witness produced
	cosigsMerged obsv.Counter // peer cosignatures verified and merged

	verifyLat  *obsv.Histogram // one multi-pairing per gossip frame
	verifySigs *obsv.Histogram // signatures folded into each multi-pairing

	frontier    *obsv.Family[*obsv.Gauge] // cosigned frontier size, per source
	frontierLag *obsv.Family[*obsv.Gauge] // largest signed size seen minus frontier, per source
}

func newGossipObs() gossipObs {
	return gossipObs{
		verifyLat:   obsv.NewHistogram(nil),
		verifySigs:  obsv.NewHistogram(obsv.SizeBuckets),
		frontier:    obsv.NewFamily(obsv.NewGauge, "source"),
		frontierLag: obsv.NewFamily(obsv.NewGauge, "source"),
	}
}

// RegisterMetrics exposes the witness's series on reg under gossip_*.
func (w *Witness) RegisterMetrics(reg *obsv.Registry) {
	o := &w.obs
	reg.Register("gossip_heads_ingested_total", "source heads presented for ingestion", &o.ingested)
	reg.Register("gossip_heads_accepted_total", "heads consistency-verified and cosigned", &o.accepted)
	reg.Register("gossip_heads_rejected_total", "heads refused outright", &o.rejected)
	reg.Register("gossip_cosigns_issued_total", "cosignatures produced by this witness", &o.cosigns)
	reg.Register("gossip_cosigs_merged_total", "peer cosignatures verified and merged", &o.cosigsMerged)
	reg.Register("gossip_verify_seconds", "latency of the per-frame BLS multi-pairing", o.verifyLat)
	reg.Register("gossip_verify_sigs", "signatures folded into each multi-pairing", o.verifySigs)
	reg.Register("gossip_frontier", "cosigned frontier size", o.frontier)
	reg.Register("gossip_frontier_lag", "largest signed size seen beyond the cosigned frontier", o.frontierLag)
	reg.Register("gossip_equivocation_proofs_total", "equivocation convictions held", obsv.CounterFunc(func() uint64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return uint64(len(w.proofs))
	}))
	reg.Register("gossip_journal_failed", "1 after a journal write has failed", obsv.GaugeFunc(func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.journalErr != nil {
			return 1
		}
		return 0
	}))
	reg.Register("gossip_frontier_lag_max", "worst frontier lag across all sources", obsv.GaugeFunc(func() float64 {
		return float64(w.FrontierLagMax())
	}))
}

// SetFlightRecorder installs the daemon's flight recorder on the
// witness. Call any time after NewWitness; nil uninstalls.
func (w *Witness) SetFlightRecorder(fr *obsv.FlightRecorder) {
	w.flight.Store(fr)
}

// FrontierLagMax is the worst frontier lag across all sources: the
// largest gap between a source's biggest validly-signed size seen and
// its cosigned frontier. The fleet-wide lag SLO and the frontier-lag
// watchdog probe both key off this single number.
func (w *Witness) FrontierLagMax() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var max uint64
	for _, st := range w.sources {
		var lag uint64
		if st.hasFrontier {
			if st.maxSeen > st.frontier {
				lag = st.maxSeen - st.frontier
			}
		} else {
			lag = st.maxSeen
		}
		if lag > max {
			max = lag
		}
	}
	return max
}

// Err reports the sticky journal failure (nil while healthy); daemons
// wire it into their readiness probes.
func (w *Witness) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.journalErr
}

// observeVerify records one multi-pairing's size and duration.
func (o *gossipObs) observeVerify(sigs int, start time.Time) {
	o.verifySigs.Observe(float64(sigs))
	o.verifyLat.Observe(time.Since(start).Seconds())
}

// updateFrontierLocked refreshes the per-source frontier gauges after an
// ingest touched st. Caller holds w.mu.
func (w *Witness) updateFrontierLocked(st *sourceState) {
	var front, lag uint64
	if st.hasFrontier {
		front = st.frontier
	}
	if st.maxSeen > front {
		lag = st.maxSeen - front
	}
	w.obs.frontier.With(st.name).Set(int64(front))
	w.obs.frontierLag.With(st.name).Set(int64(lag))
}
