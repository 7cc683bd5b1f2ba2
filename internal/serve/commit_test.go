package serve

import (
	"testing"

	"repro/internal/monitor"
	"repro/internal/obsv"
)

// TestCommitOneFsyncPerAppend: after start-up, N sequential submits to a
// durable monitor, each published by the attached tier, cost N leaf-led
// fsyncs, no head-led fsync and N head signatures. Each head is signed
// inside its batch's commit and made durable by that commit's fsync; the
// pump only reads it. (Signing in the pump instead paid 2N fsyncs.)
func TestCommitOneFsyncPerAppend(t *testing.T) {
	f := newFixture(t)
	mon, err := monitor.Open(t.TempDir(), f.params, &monitor.OpenOptions{Shards: 4, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	f.mon = mon
	reg := obsv.NewRegistry()
	mon.RegisterMetrics(reg)
	tier := f.attach(t, Options{Metrics: reg})
	waitHeadSize(t, tier, 0)
	series := []string{"store_wal_fsyncs_total", "store_head_fsyncs_total", "monitor_heads_signed_bls_total", "serve_heads_signed_total"}
	startup := map[string]float64{}
	for _, name := range series {
		startup[name] = reg.Value(name)
	}
	if startup["store_head_fsyncs_total"] != 1 {
		t.Fatalf("start-up made %v head-led fsyncs, want 1 (the head at size 0)", startup["store_head_fsyncs_total"])
	}
	const n = 5
	for i := 1; i <= n; i++ {
		f.append(t, 1)
		waitHeadSize(t, tier, i)
	}
	want := map[string]float64{
		"store_wal_fsyncs_total":         n,
		"store_head_fsyncs_total":        0,
		"monitor_heads_signed_bls_total": n,
		"serve_heads_signed_total":       n,
	}
	for _, name := range series {
		if got := reg.Value(name) - startup[name]; got != want[name] {
			t.Errorf("%d published submits moved %s by %v, want %v", n, name, got, want[name])
		}
	}
}
