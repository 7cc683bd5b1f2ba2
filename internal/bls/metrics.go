package bls

import (
	"time"

	"repro/internal/obsv"
)

// Package-level instruments: bls exposes package functions, so its
// telemetry is package-global atomics bound to a registry by
// RegisterMetrics. All increments are single atomic adds.
var obs = struct {
	verifies     obsv.Counter    // single-signature Verify calls
	batches      obsv.Counter    // VerifyBatch calls
	batchFails   obsv.Counter    // VerifyBatch calls that returned false
	batchSize    *obsv.Histogram // signatures per VerifyBatch
	batchLat     *obsv.Histogram // VerifyBatch wall time
	shareBatches obsv.Counter    // VerifyShareSignaturesBatch calls
	shareLat     *obsv.Histogram // VerifyShareSignaturesBatch wall time
}{
	batchSize: obsv.NewHistogram(obsv.SizeBuckets),
	batchLat:  obsv.NewHistogram(nil),
	shareLat:  obsv.NewHistogram(nil),
}

// RegisterMetrics exposes the package's verification series on reg
// under bls_*. Call once per process registry.
func RegisterMetrics(reg *obsv.Registry) {
	reg.Register("bls_verifies_total", "single-signature pairing checks", &obs.verifies)
	reg.Register("bls_batch_verifies_total", "VerifyBatch multi-pairings", &obs.batches)
	reg.Register("bls_batch_verify_failures_total", "VerifyBatch calls that rejected", &obs.batchFails)
	reg.Register("bls_batch_verify_size", "signatures folded per VerifyBatch", obs.batchSize)
	reg.Register("bls_batch_verify_seconds", "VerifyBatch latency", obs.batchLat)
	reg.Register("bls_share_batch_verifies_total", "threshold share batch verifications", &obs.shareBatches)
	reg.Register("bls_share_batch_verify_seconds", "threshold share batch verification latency", obs.shareLat)
}

func observeBatch(n int, start time.Time, ok bool) bool {
	obs.batches.Inc()
	obs.batchSize.Observe(float64(n))
	obs.batchLat.Observe(time.Since(start).Seconds())
	if !ok {
		obs.batchFails.Inc()
	}
	return ok
}
