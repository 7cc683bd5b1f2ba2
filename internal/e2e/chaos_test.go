// Chaos drills: boot the real daemons under deterministic seeded fault
// schedules and assert the deployment's two contracts survive them.
//
// Safety: a partitioned, crashed, or disk-faulted deployment never
// shows a split view — the witnessed frontier only moves along one
// signed timeline, and a poisoned WAL fails appends closed while reads
// keep serving. Liveness: when the fault clears, frontiers reconverge,
// subscribers catch up through the self-healing transport, and an
// interrupted refresh ceremony re-drives to completion.
//
// Every schedule is seeded: CHAOS_SEED overrides the pinned default so
// CI can run one randomized exploration per build (the failing seed is
// in the test log, and re-running with CHAOS_SEED=<seed> reproduces the
// exact fault pattern). On failure each daemon's flight recorder is
// dumped — to CHAOS_ARTIFACTS when set, else into the test log — so the
// injected-fault timeline ships with the failure report.
package e2e

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/deployfile"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/serve"
	"repro/internal/tee"
	"repro/internal/transport"
)

// chaosSeed returns the schedule seed: CHAOS_SEED when set (the CI
// randomized run), else the pinned default. The seed is always logged
// so a failure is reproducible from the report alone.
func chaosSeed(t *testing.T, pinned uint64) uint64 {
	t.Helper()
	seed := pinned
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// writeSchedule materializes one fault schedule file.
func writeSchedule(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// saveFlightOnFailure snapshots a daemon's flight recorder when the test
// fails: into CHAOS_ARTIFACTS when set (the CI artifact path), else the
// test log. Registered while the daemon is still running.
func saveFlightOnFailure(t *testing.T, daemon, metricsAddr string) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		resp, err := http.Get("http://" + metricsAddr + "/debug/flight")
		if err != nil {
			t.Logf("%s flight dump unavailable: %v", daemon, err)
			return
		}
		defer resp.Body.Close()
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		if dir := os.Getenv("CHAOS_ARTIFACTS"); dir != "" {
			os.MkdirAll(dir, 0o755)
			path := filepath.Join(dir, fmt.Sprintf("%s-%s-flight.json", t.Name(), daemon))
			if err := os.WriteFile(path, body[:n], 0o644); err == nil {
				t.Logf("%s flight dump written to %s", daemon, path)
				return
			}
		}
		t.Logf("%s flight dump:\n%s", daemon, body[:n])
	})
}

// envelopeMint provisions one in-process simulated trust domain whose
// attested statuses verify under the params it writes, so the test can
// grow a monitord's log with real submissions over RPC.
type envelopeMint struct {
	fw     *framework.Framework
	params audit.Params
	n      int
}

func newEnvelopeMint(t *testing.T) *envelopeMint {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	v, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := v.Provision("host", framework.Measure(dev.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	tk, shares, err := bls.ThresholdKeyGen(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	state := blsapp.NewShareStateWithKey(shares[0], tk, dev.PublicKey())
	fw, err := framework.New(dev.PublicKey(), enclave, blsapp.Hosts(state))
	if err != nil {
		t.Fatal(err)
	}
	mod := blsapp.ModuleBytes()
	if err := fw.Install(1, mod, dev.SignUpdate(1, mod)); err != nil {
		t.Fatal(err)
	}
	hostPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := audit.Params{
		Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []audit.DomainInfo{{Name: "d1", HasTEE: true, Addr: "127.0.0.1:1", HostKey: hostPub}},
	}
	return &envelopeMint{fw: fw, params: params}
}

// writeParams writes the deployment file monitord/auditord load.
func (m *envelopeMint) writeParams(t *testing.T, path string) {
	t.Helper()
	if err := deployfile.FromParams(m.params, nil).Write(path); err != nil {
		t.Fatal(err)
	}
}

// submit grows the monitor's log by count leaves over the RPC surface
// and returns the final log size the monitor acknowledged.
func (m *envelopeMint) submit(t *testing.T, c *transport.Client, count int) int {
	t.Helper()
	last := -1
	for i := 0; i < count; i++ {
		m.n++
		nonce := []byte(fmt.Sprintf("chaos-%d", m.n))
		as := m.fw.AttestedStatus(nonce)
		env := &audit.AttestedStatusEnvelope{
			Nonce: nonce,
			Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
		}
		var resp struct {
			LogIndex int             `json:"log_index"`
			Alert    *map[string]any `json:"alert"`
		}
		if err := c.Call("submit", env, &resp); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.Alert != nil {
			t.Fatalf("honest submission %d raised an alert", i)
		}
		last = resp.LogIndex
	}
	return last + 1
}

// frontierOf polls the witness's /metrics until the cosigned frontier
// for source reaches at least want, or the deadline passes. Returns the
// last observed value either way.
func frontierOf(t *testing.T, metricsAddr, source string, want float64, wait time.Duration) float64 {
	t.Helper()
	series := fmt.Sprintf("gossip_frontier{source=%q}", source)
	deadline := time.Now().Add(wait)
	var last float64
	for {
		_, body := httpGet(t, "http://"+metricsAddr+"/metrics")
		if v, ok := metricValue(body, series); ok {
			last = v
			if v >= want {
				return v
			}
		}
		if time.Now().After(deadline) {
			return last
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// flightContains reports whether a daemon's flight recorder holds an
// injected-fault event matching detail.
func flightContains(t *testing.T, metricsAddr, detail string) bool {
	t.Helper()
	_, body := httpGet(t, "http://"+metricsAddr+"/debug/flight")
	return strings.Contains(body, `"injected"`) && strings.Contains(body, detail)
}

// TestChaosPartitionHeal partitions the witness from its monitor while
// the log grows, then heals the link. Safety: the witness's frontier
// never moves while blind. Liveness: after heal, polling and the
// resumed push subscription reconverge the frontier with zero
// equivocation convictions. A seeded probabilistic delay rule rides
// along so randomized-seed CI runs explore latency interleavings under
// the same invariants.
func TestChaosPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	seed := chaosSeed(t, 42)
	tmp := t.TempDir()
	monitordBin := buildDaemon(t, tmp, "monitord")
	auditordBin := buildDaemon(t, tmp, "auditord")

	mint := newEnvelopeMint(t)
	paramsPath := filepath.Join(tmp, "deployment.json")
	mint.writeParams(t, paramsPath)

	monRPC, monMetrics := freePort(t), freePort(t)
	audRPC, audMetrics := freePort(t), freePort(t)
	startDaemon(t, filepath.Join(tmp, "monitord.log"), monitordBin,
		"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics, "-name", "mon")
	waitReady(t, monMetrics)
	mc, err := transport.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	size := mint.submit(t, mc, 4)

	// The partition window is generous (2s..10s after auditord start) so
	// the pre-partition pull and the mid-partition growth land inside the
	// right phases even on a loaded CI machine.
	sched := writeSchedule(t, tmp, "partition.sched", fmt.Sprintf(
		"seed %d\n"+
			"fault partition target=auditord dir=both from=2s until=10s\n"+
			"fault delay target=auditord dir=out p=0.3 delay=20ms\n", seed))
	armed := time.Now()
	startDaemon(t, filepath.Join(tmp, "auditord.log"), auditordBin,
		"-sources", "mon="+monRPC, "-listen", audRPC, "-metrics", audMetrics,
		"-name", "w1", "-subscribe", "-interval", "150ms",
		"-debug-hooks", "-fault-schedule", sched, "-fault-target", "auditord")
	waitReady(t, audMetrics)
	saveFlightOnFailure(t, "auditord", audMetrics)
	saveFlightOnFailure(t, "monitord", monMetrics)

	// Pre-partition: one explicit pull converges the frontier.
	ac, err := transport.Dial(audRPC)
	if err != nil {
		t.Fatal(err)
	}
	var pull struct {
		Errors []string `json:"errors"`
	}
	if err := ac.Call("pull", struct{}{}, &pull); err != nil {
		t.Fatalf("pre-partition pull: %v", err)
	}
	ac.Close()
	if got := frontierOf(t, audMetrics, "mon", float64(size), 2*time.Second); got != float64(size) {
		t.Fatalf("pre-partition frontier = %v, want %d", got, size)
	}

	// Mid-partition: grow the log while the witness is blind. The
	// monitor itself is unaffected (the injector lives in auditord).
	mid := armed.Add(4 * time.Second)
	time.Sleep(time.Until(mid))
	size = mint.submit(t, mc, 4)
	_, body := httpGet(t, "http://"+audMetrics+"/metrics")
	if v, ok := metricValue(body, `gossip_frontier{source="mon"}`); !ok || v >= float64(size) {
		t.Errorf("frontier advanced to %v during partition (present=%v), want < %d", v, ok, size)
	}

	// Post-heal: the auto pull loop and the resumed subscription must
	// reconverge without operator action.
	time.Sleep(time.Until(armed.Add(11 * time.Second)))
	if got := frontierOf(t, audMetrics, "mon", float64(size), 15*time.Second); got < float64(size) {
		t.Fatalf("frontier after heal = %v, want %d", got, size)
	}
	_, body = httpGet(t, "http://"+audMetrics+"/metrics")
	if v, ok := metricValue(body, "gossip_equivocation_proofs_total"); ok && v != 0 {
		t.Errorf("partition produced %v equivocation convictions, want 0", v)
	}
	if !flightContains(t, audMetrics, "partition") {
		t.Error("auditord flight recorder holds no injected partition event")
	}
}

// TestChaosMonitorCrashRecovery SIGKILLs a durable monitord mid-life and
// restarts it on the same address. Safety: the recovered log continues
// the same timeline (the old head is consistency-provable against the
// new one, no equivocation convicted). Liveness: the witness's
// self-healing subscription reconnects on its own and the frontier
// converges past the crash point.
func TestChaosMonitorCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	chaosSeed(t, 7) // logged for symmetry; this drill's fault is the SIGKILL itself
	tmp := t.TempDir()
	monitordBin := buildDaemon(t, tmp, "monitord")
	auditordBin := buildDaemon(t, tmp, "auditord")

	mint := newEnvelopeMint(t)
	paramsPath := filepath.Join(tmp, "deployment.json")
	mint.writeParams(t, paramsPath)
	dataDir := filepath.Join(tmp, "mon-data")

	monRPC, monMetrics := freePort(t), freePort(t)
	audRPC, audMetrics := freePort(t), freePort(t)
	args := []string{"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics,
		"-name", "mon", "-data", dataDir}
	d := startDaemon(t, filepath.Join(tmp, "monitord-1.log"), monitordBin, args...)
	waitReady(t, monMetrics)
	mc, err := transport.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	size := mint.submit(t, mc, 3)
	var before aolog.BLSSignedHead
	if err := mc.Call("headbls", struct{}{}, &before); err != nil {
		t.Fatal(err)
	}
	mc.Close()

	startDaemon(t, filepath.Join(tmp, "auditord.log"), auditordBin,
		"-sources", "mon="+monRPC, "-listen", audRPC, "-metrics", audMetrics,
		"-name", "w1", "-subscribe", "-interval", "150ms")
	waitReady(t, audMetrics)
	saveFlightOnFailure(t, "auditord", audMetrics)
	if got := frontierOf(t, audMetrics, "mon", float64(size), 5*time.Second); got < float64(size) {
		t.Fatalf("pre-crash frontier = %v, want %d", got, size)
	}

	// Crash hard (no clean shutdown) and restart on the same address
	// from the same data directory. The copy keeps the WAL the crash
	// left, which the restart replaces.
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()
	crashed := filepath.Join(tmp, "mon-data-crashed")
	copyTree(t, dataDir, crashed)
	startDaemon(t, filepath.Join(tmp, "monitord-2.log"), monitordBin, args...)
	waitReady(t, monMetrics)
	saveFlightOnFailure(t, "monitord", monMetrics)

	mc2, err := transport.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	var after aolog.BLSSignedHead
	if err := mc2.Call("headbls", struct{}{}, &after); err != nil {
		t.Fatalf("headbls after recovery: %v", err)
	}
	if after.Size < before.Size {
		t.Fatalf("recovered log size %d < pre-crash %d (lost acknowledged leaves)", after.Size, before.Size)
	}
	if after.Size == before.Size && after.Head != before.Head {
		t.Fatalf("recovered head differs at same size %d: split view", after.Size)
	}
	size2 := mint.submit(t, mc2, 3)
	var proof aolog.ShardConsistencyProof
	if err := mc2.Call("consistency", serve.ConsistencyRequest{OldSize: int(before.Size)}, &proof); err != nil {
		t.Fatalf("consistency across crash: %v", err)
	}
	if oldRoot, err := proof.OldSuperRoot(); err != nil || proof.OldSize != int(before.Size) || oldRoot != before.Head {
		t.Fatalf("consistency across crash does not start at the head signed before it (old size %d, err %v)", proof.OldSize, err)
	}

	// The witness's push channel died with the old process; the managed
	// subscription reconnects and the frontier moves past the crash.
	if got := frontierOf(t, audMetrics, "mon", float64(size2), 15*time.Second); got < float64(size2) {
		t.Fatalf("post-recovery frontier = %v, want %d", got, size2)
	}
	_, body := httpGet(t, "http://"+audMetrics+"/metrics")
	if v, ok := metricValue(body, "gossip_equivocation_proofs_total"); ok && v != 0 {
		t.Errorf("crash recovery produced %v equivocation convictions, want 0", v)
	}
	checkWALHeads(t, crashed, dataDir)
}

// TestChaosWALFaults drives the disk hooks: an injected fsync stall
// slows appends without breaking them, and an injected fsync error
// poisons the WAL fail-stop — the failing append and everything after
// it error out while reads keep serving the last durable head. Signed
// heads ride the WAL, so the first fsync is the initial head's, at
// startup; after it, each append is one fsync, covering its leaves and
// the head signed over them. Each drill ends by checking the WAL's
// heads (checkWALHeads).
func TestChaosWALFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	seed := chaosSeed(t, 1234)
	tmp := t.TempDir()
	monitordBin := buildDaemon(t, tmp, "monitord")

	t.Run("stall", func(t *testing.T) {
		mint := newEnvelopeMint(t)
		dir := filepath.Join(tmp, "stall")
		os.MkdirAll(dir, 0o755)
		paramsPath := filepath.Join(dir, "deployment.json")
		mint.writeParams(t, paramsPath)
		// The initial head's fsync runs clean; the first two appends'
		// fsyncs stall.
		sched := writeSchedule(t, dir, "stall.sched", fmt.Sprintf(
			"seed %d\nfault disk-stall target=monitord delay=300ms skip=1 count=2\n", seed))
		monRPC, monMetrics := freePort(t), freePort(t)
		startDaemon(t, filepath.Join(dir, "monitord.log"), monitordBin,
			"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics,
			"-name", "mon", "-data", filepath.Join(dir, "data"),
			"-debug-hooks", "-fault-schedule", sched, "-fault-target", "monitord")
		waitReady(t, monMetrics)
		saveFlightOnFailure(t, "monitord", monMetrics)
		mc, err := transport.Dial(monRPC)
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Close()
		start := time.Now()
		size := mint.submit(t, mc, 3)
		if size != 3 {
			t.Fatalf("log size %d, want 3 (stalls must not fail appends)", size)
		}
		if d := time.Since(start); d < 400*time.Millisecond {
			t.Errorf("3 appends with two 300ms stalls took %v, want >= 400ms of injected latency", d)
		}
		if !flightContains(t, monMetrics, "disk-stall wal-fsync") {
			t.Error("monitord flight recorder holds no injected disk-stall event")
		}
		checkWALHeads(t, filepath.Join(dir, "data"))
	})

	t.Run("error", func(t *testing.T) {
		mint := newEnvelopeMint(t)
		dir := filepath.Join(tmp, "error")
		os.MkdirAll(dir, 0o755)
		paramsPath := filepath.Join(dir, "deployment.json")
		mint.writeParams(t, paramsPath)
		// The initial head's fsync and the first append's run clean; the
		// second append's hits the injected error and poisons the WAL.
		sched := writeSchedule(t, dir, "error.sched", fmt.Sprintf(
			"seed %d\nfault disk-error target=monitord skip=2 count=1\n", seed))
		monRPC, monMetrics := freePort(t), freePort(t)
		startDaemon(t, filepath.Join(dir, "monitord.log"), monitordBin,
			"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics,
			"-name", "mon", "-data", filepath.Join(dir, "data"),
			"-debug-hooks", "-fault-schedule", sched, "-fault-target", "monitord")
		waitReady(t, monMetrics)
		saveFlightOnFailure(t, "monitord", monMetrics)
		mc, err := transport.Dial(monRPC)
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Close()
		size := mint.submit(t, mc, 1)
		if size != 1 {
			t.Fatalf("first append: size %d, want 1", size)
		}
		var head aolog.BLSSignedHead
		for deadline := time.Now().Add(10 * time.Second); head.Size != 1; time.Sleep(10 * time.Millisecond) {
			if err := mc.Call("headbls", struct{}{}, &head); err != nil {
				t.Fatalf("headbls: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("published head stuck at size %d, want 1", head.Size)
			}
		}
		submitOne := func() error {
			mint.n++
			nonce := []byte(fmt.Sprintf("chaos-%d", mint.n))
			as := mint.fw.AttestedStatus(nonce)
			env := &audit.AttestedStatusEnvelope{
				Nonce: nonce,
				Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
			}
			var resp struct{}
			return mc.Call("submit", env, &resp)
		}
		err = submitOne()
		if err == nil || !strings.Contains(err.Error(), "wal fsync") {
			t.Fatalf("append through injected disk error = %v, want wal fsync failure", err)
		}
		// Sticky poison: later appends fail fast even though the rule's
		// count is exhausted — the store will not silently resume after
		// a disk error.
		if err := submitOne(); err == nil {
			t.Fatal("append after WAL poison succeeded, want fail-stop")
		}
		// Reads still serve the last durable state.
		if err := mc.Call("headbls", struct{}{}, &head); err != nil {
			t.Fatalf("read after WAL poison: %v", err)
		}
		if head.Size != 1 {
			t.Fatalf("head size after poison = %d, want 1", head.Size)
		}
		if !flightContains(t, monMetrics, "disk-error wal-fsync") {
			t.Error("monitord flight recorder holds no injected disk-error event")
		}
		checkWALHeads(t, filepath.Join(dir, "data"))
	})
}

// TestChaosRefreshInterrupted breaks a share-refresh ceremony with an
// injected connection drop, then re-drives it. The interrupted run must
// leave the durable pending-ceremony file behind; the second run resumes
// the SAME ceremony package, commits the new epoch, and a threshold
// signature under the rotated shares verifies end to end.
func TestChaosRefreshInterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	seed := chaosSeed(t, 99)
	tmp := t.TempDir()
	trustdomaindBin := buildDaemon(t, tmp, "trustdomaind")
	dtclientBin := buildDaemon(t, tmp, "dtclient")

	paramsPath := filepath.Join(tmp, "deployment.json")
	// Drop the second connection the deployment accepts: the refresh
	// coordinator's dial to one domain dies mid-ceremony, after the
	// durable-intent file is written but before the epoch commits.
	sched := writeSchedule(t, tmp, "refresh.sched", fmt.Sprintf(
		"seed %d\nfault drop target=trustdomaind dir=in skip=1 count=1\n", seed))
	metricsAddr := freePort(t)
	startDaemon(t, filepath.Join(tmp, "trustdomaind.log"), trustdomaindBin,
		"-params", paramsPath, "-data", filepath.Join(tmp, "tdd-data"),
		"-metrics", metricsAddr,
		"-debug-hooks", "-fault-schedule", sched, "-fault-target", "trustdomaind")
	waitReady(t, metricsAddr)
	saveFlightOnFailure(t, "trustdomaind", metricsAddr)
	// The parameters file lands right after the metrics endpoint; wait
	// for it and the refresh signing key.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(paramsPath + ".refresh-key"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trustdomaind never wrote the parameters and refresh key")
		}
		time.Sleep(50 * time.Millisecond)
	}

	run := func(args ...string) (string, error) {
		cmd := exec.Command(dtclientBin, append([]string{"-params", paramsPath}, args...)...)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := run("refresh")
	if err == nil {
		t.Fatalf("refresh through injected drop succeeded, want failure; output:\n%s", out)
	}
	pending := paramsPath + ".refresh-pending"
	if _, serr := os.Stat(pending); serr != nil {
		t.Fatalf("interrupted refresh left no pending-ceremony file (%v); output:\n%s", serr, out)
	}

	// Re-drive: the drop rule's count is exhausted, so the resumed
	// ceremony runs clean and commits the next epoch.
	out, err = run("refresh")
	if err != nil {
		t.Fatalf("re-driven refresh failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "resuming interrupted refresh ceremony") {
		t.Errorf("re-drive did not resume the pending ceremony; output:\n%s", out)
	}
	if !strings.Contains(out, "shares refreshed") {
		t.Errorf("re-drive did not commit; output:\n%s", out)
	}
	if _, serr := os.Stat(pending); serr == nil {
		t.Error("pending-ceremony file survived a committed refresh")
	}
	f, err := deployfile.Read(paramsPath)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := f.ThresholdKey()
	if err != nil || tk == nil {
		t.Fatalf("parameters after refresh: %v", err)
	}
	if tk.Epoch != 1 {
		t.Fatalf("parameters epoch = %d, want 1 (one committed refresh above the initial epoch)", tk.Epoch)
	}

	out, err = run("sign", "-msg", "post-refresh probe")
	if err != nil {
		t.Fatalf("sign under rotated shares failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "verified under group key") {
		t.Errorf("sign output missing verification line:\n%s", out)
	}
	if !flightContains(t, metricsAddr, "drop") {
		t.Error("trustdomaind flight recorder holds no injected drop event")
	}
}
