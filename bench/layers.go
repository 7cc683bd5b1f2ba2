package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/transport"
)

// clientReg counts the generator's own pairing checks through the series
// the daemons publish theirs on.
var clientReg = func() *obsv.Registry {
	reg := obsv.NewRegistry()
	bls12381.RegisterMetrics(reg)
	return reg
}()

func pairingChecks() float64 { return clientReg.Value("bls12381_pairing_checks_total") }

// clientLayers reports how good the measurement itself was, from the
// untraced window.
func clientLayers(un *phase, L map[string]float64) {
	lats := sortedLats(un.samples[classPrimary])
	p, v := tailQuantile(lats)
	L["client.ptail"] = p
	L["client.ptail_ms"] = ms(v)
	L["client.samples"] = float64(len(lats))
	L["client.raw_p50_ms"] = ms(quantile(lats, 0.5))
	L["client.slowdown"] = medianF(un.slowdowns())
	L["client.slice_spread"] = spread(sliceRates(un.all(), un.window))
	L["client.late_max_ms"] = ms(un.lateMax)
	L["client.cpu_s"] = un.clientCPU.Seconds()
}

// commonLayers fills what every workload reads the same way from the
// traced window's server-side deltas.
func commonLayers(un, tr *phase, w driver, L map[string]float64) {
	ops := float64(tr.ops())
	dl := tr.dl
	L["trace.overhead_ratio"] = ratio(tr.rate(), un.rate())
	L["transport.bytes_per_op"] = (dl.of("rpc_rx_bytes_total") + dl.of("rpc_tx_bytes_total")) / ops
	errs := dl.of("rpc_bad_frames_total") + dl.of("rpc_push_errors_total")
	for series := range dl.after {
		if strings.HasPrefix(series, "rpc_errors_total{") {
			errs += dl.of(series)
		}
	}
	L["transport.errors"] = errs
	hits := dl.of("serve_cache_hits_total") + dl.of("serve_cache_coalesced_total")
	L["serve.cache_hit_ratio"] = ratio(hits, hits+dl.of("serve_cache_misses_total"))
	L["serve.refused"] = dl.of("serve_admission_refused_total") + dl.of("serve_degraded_total")
	L["bls.pairing_checks_per_op"] = tr.pairings / ops
	L["monitor.rss_peak_mb"] = procPeakRSSMB(w.pid())
}

// budgetLayers publishes the budget rows and the stage model built on
// them: a closed loop of conns connections, each waiting out every stage
// in turn, completes conns / (sum of stage times) operations per second.
func budgetLayers(b budget, conns int, tr *phase, L map[string]float64) {
	for _, name := range budgetRows {
		L["budget."+name+"_us"] = us(b.Rows[name])
	}
	L["budget.residual_us"] = us(b.Residual)
	L["budget.mean_op_us"] = us(b.Mean)
	L["budget.residual_ratio"] = b.residualRatio()
	if conns > 0 && b.explained() > 0 {
		predicted := float64(conns) / b.explained().Seconds()
		measured := ratio(float64(len(tr.samples[classPrimary])), tr.window.Seconds())
		L["model.predicted_ops_per_s"] = predicted
		L["model.error_ratio"] = math.Abs(predicted-measured) / measured
	}
}

// medianTime is the median wall time of n calls of f.
func medianTime(n int, f func()) time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2]
}

// probeLeaves sizes the in-process log the probes run against.
const probeLeaves = 1024

// probes times one public call per layer inside this process, with no
// daemon and no socket: what each layer costs on its own, to set beside
// what the same layer costs on the wire path. It runs before a workload's
// own layers, which may use a probe or replace it with a measured span.
func probes(L map[string]float64) error {
	fx, err := loadtest.NewFixture(probeLeaves)
	if err != nil {
		return fmt.Errorf("in-process probe fixture: %w", err)
	}
	defer fx.Close()
	hot := &serve.ProofRequest{Index: probeLeaves - 1}
	reply, err := fx.Tier.Proof(hot)
	if err != nil {
		return fmt.Errorf("in-process proof: %w", err)
	}
	// This is the figure BENCH_serve.json reports as a request: one cached
	// Tier.Proof, no codec, no socket, no client verification.
	L["serve.proof_hit_us"] = us(medianTime(2000, func() { fx.Tier.Proof(hot) }))
	i := 0
	L["aolog.prove_us"] = us(medianTime(500, func() {
		i++
		fx.Mon.ProveInclusionAt(i, probeLeaves/2+i)
	}))

	// Codec: what the transport does to one captured proof reply on both
	// ends — marshal body and envelope, frame, unframe, unmarshal both.
	L["transport.codec_us"] = us(medianTime(500, func() {
		body, _ := json.Marshal(reply)
		frame, _ := json.Marshal(&transport.Response{ID: 1, OK: true, Body: body})
		var buf bytes.Buffer
		transport.WriteFrame(&buf, frame)
		raw, _ := transport.ReadFrame(&buf)
		var resp transport.Response
		json.Unmarshal(raw, &resp)
		var out serve.ProofResponse
		json.Unmarshal(resp.Body, &out)
	}))

	sk, pk, err := bls.GenerateKey()
	if err != nil {
		return err
	}
	msg := reply.Head.Head[:]
	sig := sk.Sign(msg)
	L["bls.sign_ms"] = ms(medianTime(20, func() { sk.Sign(msg) }))
	L["bls.verify_sig_ms"] = ms(medianTime(10, func() { bls.Verify(pk, msg, sig) }))

	m, err := newMint(0)
	if err != nil {
		return err
	}
	env := m.next().env
	L["monitor.verify_envelope_us"] = us(medianTime(200, func() { audit.VerifyStatusEnvelope(&m.params, env) }))
	return nil
}
