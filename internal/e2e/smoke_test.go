// Package e2e boots real daemon binaries and checks the observability
// contract end to end: /metrics series move when traffic flows, a
// sampled client trace shows up on the daemons it touched, and a
// poisoned serve tier flips /readyz while /metrics reports
// serve_poisoned 1.
package e2e

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/deployfile"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/tee"
	"repro/internal/transport"
)

// freePort reserves an ephemeral port and releases it for the daemon to
// bind. The tiny reuse race is acceptable for a smoke test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func buildDaemon(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// daemon is one spawned process whose stderr is captured for the test's
// failure output.
type daemon struct {
	cmd  *exec.Cmd
	logf *os.File
}

func startDaemon(t *testing.T, logPath, bin string, args ...string) *daemon {
	t.Helper()
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	d := &daemon{cmd: cmd, logf: logf}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
		logf.Close()
		if t.Failed() {
			if b, err := os.ReadFile(logPath); err == nil {
				t.Logf("%s log:\n%s", filepath.Base(logPath), b)
			}
		}
	})
	return d
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// waitReady polls /readyz until it answers 200 (daemon up and healthy).
func waitReady(t *testing.T, metricsAddr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + metricsAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", metricsAddr)
}

func metricValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// assertSeriesSet pins the NAMES a daemon publishes on /metrics.json to
// the committed testdata/<daemon>.series list: bench/ and dtstat scrape
// these by name, so a refactor of the daemon wiring must not add, drop
// or rename one. UPDATE_SERIES=1 rewrites the list after a deliberate
// change.
func assertSeriesSet(t *testing.T, daemon, metricsAddr string) {
	t.Helper()
	_, body := httpGet(t, "http://"+metricsAddr+"/metrics.json")
	var snap map[string]float64
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("%s /metrics.json: %v", daemon, err)
	}
	got := make([]string, 0, len(snap))
	for name := range snap {
		got = append(got, name)
	}
	slices.Sort(got)
	golden := filepath.Join("testdata", daemon+".series")
	if os.Getenv("UPDATE_SERIES") != "" {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("%s publishes series %q that %s does not list", daemon, name, golden)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("%s no longer publishes series %q listed in %s", daemon, name, golden)
		}
	}
}

func TestObservabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	tmp := t.TempDir()
	monitordBin := buildDaemon(t, tmp, "monitord")
	auditordBin := buildDaemon(t, tmp, "auditord")
	trustdomaindBin := buildDaemon(t, tmp, "trustdomaind")

	// A minimal deployment file: monitord only needs the verification
	// parameters, not live trust domains.
	_, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	hostPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := audit.Params{Roots: roots, Measurement: tee.Measurement{0xab},
		Domains: []audit.DomainInfo{{Name: "domain-0", Addr: "127.0.0.1:1", HostKey: hostPub}}}
	paramsPath := filepath.Join(tmp, "deployment.json")
	if err := deployfile.FromParams(params, nil).Write(paramsPath); err != nil {
		t.Fatal(err)
	}

	monRPC, monMetrics := freePort(t), freePort(t)
	audRPC, audMetrics := freePort(t), freePort(t)
	startDaemon(t, filepath.Join(tmp, "monitord.log"), monitordBin,
		"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics,
		"-name", "mon", "-trace", "1", "-debug-hooks")
	waitReady(t, monMetrics)
	startDaemon(t, filepath.Join(tmp, "auditord.log"), auditordBin,
		"-sources", "mon="+monRPC, "-listen", audRPC, "-metrics", audMetrics,
		"-name", "w1", "-trace", "1")
	waitReady(t, audMetrics)
	tdMetrics := freePort(t)
	startDaemon(t, filepath.Join(tmp, "trustdomaind.log"), trustdomaindBin,
		"-demo", "-n", "3", "-t", "2", "-params", filepath.Join(tmp, "domains.json"),
		"-metrics", tdMetrics)
	waitReady(t, tdMetrics)

	// Drive traffic carrying a sampled trace: reads against the serve
	// tier, then one witness pull so the auditord ingests the monitor's
	// head and advances its cosigned frontier.
	mc, err := transport.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	trace := obsv.NewTrace()
	mc.SetTrace(trace)
	var head aolog.BLSSignedHead
	for i := 0; i < 3; i++ {
		if err := mc.Call("headbls", struct{}{}, &head); err != nil {
			t.Fatalf("headbls: %v", err)
		}
	}
	ac, err := transport.Dial(audRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	var pull struct {
		Errors []string `json:"errors"`
	}
	if err := ac.Call("pull", struct{}{}, &pull); err != nil {
		t.Fatalf("pull: %v", err)
	}
	if len(pull.Errors) > 0 {
		t.Fatalf("witness pull errors: %v", pull.Errors)
	}

	// Key series must have moved on the monitor...
	_, monBody := httpGet(t, "http://"+monMetrics+"/metrics")
	for series, min := range map[string]float64{
		`rpc_requests_total{kind="headbls"}`: 3,
		"serve_heads_signed_total":           1,
		"process_ready":                      1,
	} {
		if v, ok := metricValue(monBody, series); !ok || v < min {
			t.Errorf("monitor %s = %v (present=%v), want >= %v", series, v, ok, min)
		}
	}
	// ...and on the witness, including the per-source frontier gauge.
	_, audBody := httpGet(t, "http://"+audMetrics+"/metrics")
	for series, min := range map[string]float64{
		"gossip_heads_ingested_total":   1,
		"gossip_heads_accepted_total":   1,
		"gossip_cosigns_issued_total":   1,
		`gossip_frontier{source="mon"}`: 0,
	} {
		if v, ok := metricValue(audBody, series); !ok || v < min {
			t.Errorf("witness %s = %v (present=%v), want >= %v", series, v, ok, min)
		}
	}

	// The series each daemon publishes are an interface: same names as
	// the committed lists, whatever the wiring behind them looks like.
	assertSeriesSet(t, "monitord", monMetrics)
	assertSeriesSet(t, "auditord", audMetrics)
	assertSeriesSet(t, "trustdomaind", tdMetrics)

	// The sampled client trace must be visible on the monitor's /traces.
	_, traces := httpGet(t, "http://"+monMetrics+"/traces")
	traceHex := fmt.Sprintf("%x", trace.TraceID[:])
	if !strings.Contains(traces, traceHex) {
		t.Errorf("monitor /traces does not contain client trace %s:\n%s", traceHex, traces)
	}

	// Poison the serve tier: /readyz must flip to 503 while /metrics
	// reports serve_poisoned 1 — fail-closed made operationally visible.
	var poisoned map[string]bool
	if err := mc.Call("_poison", struct{}{}, &poisoned); err != nil {
		t.Fatalf("_poison: %v", err)
	}
	code, readyBody := httpGet(t, "http://"+monMetrics+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after poison = %d, want 503; body:\n%s", code, readyBody)
	}
	if !strings.Contains(readyBody, "serve") {
		t.Errorf("/readyz body does not name the failing probe:\n%s", readyBody)
	}
	_, monBody = httpGet(t, "http://"+monMetrics+"/metrics")
	if v, ok := metricValue(monBody, "serve_poisoned"); !ok || v != 1 {
		t.Errorf("serve_poisoned = %v (present=%v), want 1", v, ok)
	}
	if v, ok := metricValue(monBody, "process_ready"); !ok || v != 0 {
		t.Errorf("process_ready after poison = %v (present=%v), want 0", v, ok)
	}
}

// TestMonitordReadSurface pins what a running, persistent monitord
// answers now that it has one tree-head key and one read path. "info"
// signs nothing: after an append has settled, twenty calls move neither
// serve_heads_signed_total nor any monitor_heads_signed_* series nor
// head.json. "head" and "servestats" are unknown kinds; "info" carries
// bls_key and no public_key; headbls, consistency, proof and subscribe
// answer as before.
func TestMonitordReadSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	tmp := t.TempDir()
	monitordBin := buildDaemon(t, tmp, "monitord")
	mint := newEnvelopeMint(t)
	paramsPath := filepath.Join(tmp, "deployment.json")
	mint.writeParams(t, paramsPath)
	dataDir := filepath.Join(tmp, "mon-data")
	monRPC, monMetrics := freePort(t), freePort(t)
	startDaemon(t, filepath.Join(tmp, "monitord.log"), monitordBin,
		"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics,
		"-name", "mon", "-data", dataDir)
	waitReady(t, monMetrics)
	mc, err := transport.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	// Append, then let the head pump publish (and persist) the new head.
	size := mint.submit(t, mc, 3)
	waitHead := func(want int) aolog.BLSSignedHead {
		t.Helper()
		var head aolog.BLSSignedHead
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if err := mc.Call("headbls", struct{}{}, &head); err != nil {
				t.Fatalf("headbls: %v", err)
			}
			if int(head.Size) == want {
				return head
			}
			if time.Now().After(deadline) {
				t.Fatalf("published head stuck at size %d, want %d", head.Size, want)
			}
		}
	}
	head := waitHead(size)

	// What signing anything would move.
	signed := func() map[string]float64 {
		t.Helper()
		_, body := httpGet(t, "http://"+monMetrics+"/metrics.json")
		var snap map[string]float64
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("/metrics.json: %v", err)
		}
		out := map[string]float64{}
		for name, v := range snap {
			if name == "serve_heads_signed_total" || strings.HasPrefix(name, "monitor_heads_signed_") {
				out[name] = v
			}
		}
		fi, err := os.Stat(filepath.Join(dataDir, "head.json"))
		if err != nil {
			t.Fatal(err)
		}
		out["head.json mtime"] = float64(fi.ModTime().UnixNano())
		return out
	}
	before := signed()
	if len(before) < 3 {
		t.Fatalf("expected serve_heads_signed_total, a monitor_heads_signed_* series and head.json, got %v", before)
	}
	var info map[string]json.RawMessage
	for i := 0; i < 20; i++ {
		info = nil
		if err := mc.Call("info", struct{}{}, &info); err != nil {
			t.Fatalf("info: %v", err)
		}
	}
	if after := signed(); !maps.Equal(before, after) {
		t.Errorf("20 info calls signed or persisted a head:\nbefore %v\nafter  %v", before, after)
	}

	// The wire surface.
	if _, ok := info["public_key"]; ok {
		t.Error("info still carries public_key; the monitor has one head key")
	}
	var id struct {
		BLSKey []byte `json:"bls_key"`
		Size   int    `json:"size"`
	}
	if err := mc.Call("info", struct{}{}, &id); err != nil || id.Size != size {
		t.Fatalf("info = %+v (%v), want size %d", id, err, size)
	}
	pk := new(bls.PublicKey)
	if err := pk.SetBytes(id.BLSKey); err != nil {
		t.Fatalf("info bls_key: %v", err)
	}
	if !aolog.VerifyHeadBLS(pk, &head) {
		t.Error("headbls does not verify under info's bls_key")
	}
	for _, kind := range []string{"head", "servestats"} {
		err := mc.Call(kind, struct{}{}, nil)
		if err == nil || !strings.Contains(err.Error(), "unknown request kind") {
			t.Errorf("%s answered %v, want unknown request kind", kind, err)
		}
	}
	var pr serve.ProofResponse
	if err := mc.Call(serve.KindProof, serve.ProofRequest{Index: 1}, &pr); err != nil {
		t.Fatalf("proof: %v", err)
	}
	if pr.Head == nil || pr.Head.Head != head.Head || !aolog.VerifyShardInclusion(pr.Payload, pr.Proof, pr.Head.Head) {
		t.Errorf("proof reply does not verify under the published head: %+v", pr)
	}
	var cons aolog.ShardConsistencyProof
	if err := mc.Call("consistency", serve.ConsistencyRequest{OldSize: 1}, &cons); err != nil || cons.OldSize != 1 {
		t.Fatalf("consistency: %v (proof %+v)", err, cons)
	}
	sub, err := serve.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("probe"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if acked := sub.Heads(); len(acked) != 1 || acked[0].Head.Size != head.Size || acked[0].Head.Head != head.Head {
		t.Errorf("subscribe acked %+v, want the published head at size %d", acked, size)
	}
	// One more append is pushed, and verifies against the head before it.
	next := waitHead(mint.submit(t, mc, 1))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if pushed := sub.Heads(); len(pushed) == 1 && pushed[0].Head.Size == next.Size {
			if !aolog.VerifyHeadBLS(pk, &pushed[0].Head) {
				t.Error("pushed head does not verify under info's bls_key")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("head at size %d never pushed", next.Size)
		}
	}
	if err := mc.Call("consistency", serve.ConsistencyRequest{OldSize: size}, &cons); err != nil ||
		!aolog.VerifyShardConsistency(head.Head, next.Head, &cons) {
		t.Errorf("consistency %d..%d does not verify between the two published heads (err %v)", size, next.Size, err)
	}
}
