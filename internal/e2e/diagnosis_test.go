package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/deployfile"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/obsv"
	"repro/internal/tee"
	"repro/internal/transport"
)

// TestDiagnosisSmoke exercises the diagnosis plane end to end against a
// real monitord: a WAL-fsync stall injected by a one-line fault schedule
// must trip the wal-fsync watchdog within its deadline, write a
// schema-valid flight dump naming the stall, degrade the daemon WITHOUT
// flipping /readyz, burn the deployment file's fsync SLO, show up in
// dtstat's fleet table — and the flight ring alone must name the fault
// that caused it all.
func TestDiagnosisSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	tmp := t.TempDir()
	monitordBin := buildDaemon(t, tmp, "monitord")
	dtstatBin := buildDaemon(t, tmp, "dtstat")

	// A sim-TEE ecosystem whose attested statuses the monitor accepts:
	// submissions are the only path that appends (and therefore fsyncs).
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := vendor.Provision("host", framework.Measure(dev.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	params := audit.Params{
		Roots:       tee.RootSet{tee.VendorSimSGX: vendor.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []audit.DomainInfo{{Name: "d1", HasTEE: true}},
	}
	file := deployfile.FromParams(params, nil)
	// Declare the objective in the deployment file (not the built-in
	// defaults) so the file -> SLO engine path is what's under test.
	file.SLOs = []obsv.Objective{{
		Name:      "wal-fsync-p99",
		Kind:      "latency",
		Series:    "store_wal_fsync_seconds",
		Threshold: 0.131072, // a LatencyBuckets bound; the injected stall is ~8x it
		Target:    0.99,
	}}
	paramsPath := filepath.Join(tmp, "deployment.json")
	if err := file.Write(paramsPath); err != nil {
		t.Fatal(err)
	}

	// A gate-less disk-stall rule sleeps before every WAL fsync.
	sched := writeSchedule(t, tmp, "stall.sched", "fault disk-stall target=monitord delay=1s\n")
	dataDir := filepath.Join(tmp, "mon-data")
	monRPC, monMetrics := freePort(t), freePort(t)
	startDaemon(t, filepath.Join(tmp, "monitord.log"), monitordBin,
		"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics,
		"-name", "mon", "-trace", "1", "-data", dataDir,
		"-debug-hooks", "-fault-schedule", sched,
		"-fsync-deadline", "250ms", "-slo-interval", "200ms")
	waitReady(t, monMetrics)

	// An app framework matching the deployment, so envelopes verify.
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	state := blsapp.NewShareStateWithKey(shares[0], tk, dev.PublicKey())
	fw, err := framework.New(dev.PublicKey(), enclave, blsapp.Hosts(state))
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Install(1, blsapp.ModuleBytes(), dev.SignUpdate(1, blsapp.ModuleBytes())); err != nil {
		t.Fatal(err)
	}

	// Each submission appends to the WAL and hits the injected 1s stall
	// against a 250ms watchdog deadline. Run them from a goroutine: the
	// interesting window — daemon degraded but still ready — is DURING
	// the stall.
	mc, err := transport.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	trace := obsv.NewTrace()
	tctx := obsv.ContextWithTrace(context.Background(), trace)
	submitDone := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			env := fabricateEnvelope(fw, fmt.Sprintf("nonce-%d", i))
			var resp struct {
				LogIndex int `json:"log_index"`
			}
			if err := mc.CallCtx(tctx, "submit", env, &resp); err != nil {
				submitDone <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
		}
		submitDone <- nil
	}()

	// The watchdog must trip within its deadline (plus tick latency),
	// long before the stalled fsyncs finish draining.
	deadline := time.Now().Add(20 * time.Second)
	tripped := false
	for time.Now().Before(deadline) {
		_, body := httpGet(t, "http://"+monMetrics+"/metrics")
		if v, ok := metricValue(body, `watchdog_trips_total{watchdog="wal-fsync"}`); ok && v >= 1 {
			tripped = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !tripped {
		t.Fatal("wal-fsync watchdog never tripped under an injected 1s stall with a 250ms deadline")
	}

	// Degraded, not failed: /readyz stays 200 and names the degraded
	// watchdog in its body; the degraded gauge is up.
	code, readyBody := httpGet(t, "http://"+monMetrics+"/readyz")
	if code != http.StatusOK {
		t.Errorf("/readyz during stall = %d, want 200 (degraded must not mean unready); body:\n%s", code, readyBody)
	}
	if !strings.Contains(readyBody, "watchdog:wal-fsync") {
		t.Errorf("/readyz body does not name the degraded watchdog:\n%s", readyBody)
	}
	_, metricsBody := httpGet(t, "http://"+monMetrics+"/metrics")
	if v, ok := metricValue(metricsBody, `watchdog_stalled{watchdog="wal-fsync"}`); !ok || v != 1 {
		t.Errorf(`watchdog_stalled{watchdog="wal-fsync"} = %v (present=%v), want 1`, v, ok)
	}
	if v, ok := metricValue(metricsBody, "process_ready"); !ok || v != 1 {
		t.Errorf("process_ready during stall = %v (present=%v), want 1", v, ok)
	}

	// dtstat during the stall: the fleet table shows the node ready but
	// degraded on wal-fsync with recorded trips.
	out, err := exec.Command(dtstatBin, "-nodes", "mon="+monMetrics).CombinedOutput()
	if err != nil {
		t.Fatalf("dtstat: %v\n%s", err, out)
	}
	table := string(out)
	if !strings.Contains(table, "mon") || !strings.Contains(table, "wal-fsync") {
		t.Errorf("dtstat table missing degraded node row:\n%s", table)
	}

	// The deployment-file SLO must burn: every stalled fsync is far
	// above the 131ms threshold.
	burned := false
	for time.Now().Before(deadline) {
		_, body := httpGet(t, "http://"+monMetrics+"/metrics")
		if v, ok := metricValue(body, `slo_burn_rate{objective="wal-fsync-p99",window="5m"}`); ok && v > 0 {
			burned = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !burned {
		t.Error("slo_burn_rate for wal-fsync-p99 never went positive under stalled fsyncs")
	}

	if err := <-submitDone; err != nil {
		t.Fatal(err)
	}

	// The trip dumped the flight ring next to the data: schema-valid,
	// carrying the stall event with the watchdog's name and a trace id.
	dumps, err := filepath.Glob(filepath.Join(dataDir, "flight-*.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no flight dump written to %s (err=%v)", dataDir, err)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump obsv.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight dump not parseable: %v\n%s", err, raw)
	}
	if dump.Schema != obsv.FlightSchema {
		t.Errorf("flight dump schema = %q, want %q", dump.Schema, obsv.FlightSchema)
	}
	if dump.Daemon != "monitord" {
		t.Errorf("flight dump daemon = %q, want monitord", dump.Daemon)
	}
	stallEvent := false
	for _, ev := range dump.Events {
		if ev.Kind == "stall" && strings.Contains(ev.Detail, "wal-fsync") && ev.Trace != "" {
			stallEvent = true
			break
		}
	}
	if !stallEvent {
		t.Errorf("flight dump has no wal-fsync stall event with a trace id:\n%s", raw)
	}

	// The surfaces alone name the fault: the ring carries the injection.
	if !flightContains(t, monMetrics, "disk-stall wal-fsync") {
		t.Error("monitord flight recorder holds no fault/injected disk-stall wal-fsync event")
	}

	// The same ring is live on /debug/flight, and dtstat can pull it.
	out, err = exec.Command(dtstatBin, "flight", monMetrics).CombinedOutput()
	if err != nil {
		t.Fatalf("dtstat flight: %v\n%s", err, out)
	}
	var remote obsv.FlightDump
	if err := json.Unmarshal(out, &remote); err != nil {
		t.Fatalf("dtstat flight output not a dump: %v\n%s", err, out)
	}
	if remote.Schema != obsv.FlightSchema || len(remote.Events) == 0 {
		t.Errorf("remote flight dump schema=%q events=%d", remote.Schema, len(remote.Events))
	}

	// CI uploads the dump as a build artifact for post-mortem debugging.
	if dir := os.Getenv("DIAG_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			os.WriteFile(filepath.Join(dir, filepath.Base(dumps[0])), raw, 0o644)
		}
	}
}

// fabricateEnvelope produces one verifiable attested status from the
// test's sim-TEE framework (same shape the audit client fetches from a
// live domain).
func fabricateEnvelope(fw *framework.Framework, nonce string) *audit.AttestedStatusEnvelope {
	as := fw.AttestedStatus([]byte(nonce))
	return &audit.AttestedStatusEnvelope{
		Nonce: []byte(nonce),
		Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
	}
}
