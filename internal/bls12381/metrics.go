package bls12381

import "repro/internal/obsv"

// Package-level pairing instruments: every PairingCheck bumps one
// counter and adds its pair count, so operators can see multi-pairing
// amortization (pairs per check) directly from the ratio.
var pairObs = struct {
	checks obsv.Counter // PairingCheck invocations
	pairs  obsv.Counter // (G1, G2) pairs folded across all checks
}{}

// RegisterMetrics exposes the curve's pairing series on reg under
// bls12381_*.
func RegisterMetrics(reg *obsv.Registry) {
	reg.Register("bls12381_pairing_checks_total", "multi-pairing product checks", &pairObs.checks)
	reg.Register("bls12381_pairing_pairs_total", "pairs folded into pairing checks", &pairObs.pairs)
}
