package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/deployfile"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/tee"
	"repro/internal/transport"
)

// opTimeout is the per-operation deadline: a call that exceeds it counts
// as failed.
const opTimeout = 2 * time.Second

// seedBatch is the submitbatch size used to seed a monitor's log.
const seedBatch = 256

// mint provisions one in-process simulated trust domain whose attested
// statuses verify under the params it writes, so the generator can grow
// a monitord's log with real submissions over RPC (the newEnvelopeMint
// pattern of internal/e2e/chaos_test.go).
type mint struct {
	fw     *framework.Framework
	params audit.Params
	seed   uint64

	mu sync.Mutex // next may be called from several submitters
	n  int
}

func newMint(seed uint64) (*mint, error) {
	dev, err := framework.NewDeveloper()
	if err != nil {
		return nil, err
	}
	v, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		return nil, err
	}
	enclave, err := v.Provision("host", framework.Measure(dev.PublicKey()))
	if err != nil {
		return nil, err
	}
	tk, shares, err := bls.ThresholdKeyGen(1, 1)
	if err != nil {
		return nil, err
	}
	state := blsapp.NewShareStateWithKey(shares[0], tk, dev.PublicKey())
	fw, err := framework.New(dev.PublicKey(), enclave, blsapp.Hosts(state))
	if err != nil {
		return nil, err
	}
	mod := blsapp.ModuleBytes()
	if err := fw.Install(1, mod, dev.SignUpdate(1, mod)); err != nil {
		return nil, err
	}
	hostPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	params := audit.Params{
		Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []audit.DomainInfo{{Name: "d1", HasTEE: true, Addr: "127.0.0.1:1", HostKey: hostPub}},
	}
	return &mint{fw: fw, params: params, seed: seed}, nil
}

// leaf is one minted envelope and the log payload the monitor stores for
// it (its JSON encoding), which every proof reply is compared against.
type leaf struct {
	env     *audit.AttestedStatusEnvelope
	payload []byte
}

// next mints one attested status whose nonce derives from the seed.
func (m *mint) next() leaf {
	m.mu.Lock()
	m.n++
	nonce := []byte(fmt.Sprintf("bench-%d-%d", m.seed, m.n))
	m.mu.Unlock()
	as := m.fw.AttestedStatus(nonce)
	env := &audit.AttestedStatusEnvelope{
		Nonce: nonce,
		Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
	}
	payload, err := json.Marshal(env)
	if err != nil {
		panic("bench: envelope must marshal: " + err.Error())
	}
	return leaf{env: env, payload: payload}
}

func (m *mint) batch(n int) []leaf {
	out := make([]leaf, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// submitReply is monitord's answer to submit and, per entry, submitbatch.
type submitReply struct {
	LogIndex int              `json:"log_index"`
	Alert    *json.RawMessage `json:"alert"`
	Error    string           `json:"error"`
}

// monInfo is the part of monitord's "info" reply the benchmark uses.
type monInfo struct {
	BLSKey []byte `json:"bls_key"`
}

// monitorFixture is one running `monitord -data` seeded with leaves whose
// head has been BLS-verified client-side.
type monitorFixture struct {
	e       *env
	dir     string // holds deployment.json, data/, logs
	d       *daemon
	rpc     string
	metrics string
	pk      *bls.PublicKey
	leaves  []leaf              // everything in the log, by index
	head    aolog.BLSSignedHead // verified head covering leaves
	setup   time.Duration       // spawn -> verified head
}

// dial connects with opTimeout as both the connect and the per-call
// deadline.
func dial(addr string) (*transport.Client, error) { return dialTimeout(addr, opTimeout) }

// dialTimeout connects with d as both the connect and the per-call
// deadline. Set-up and the crash epilogue use readyCap: they are not
// operations, and a daemon that is slow to come up or to recover is
// reported by setup_s and store.recovery_ms, not by a failed run.
func dialTimeout(addr string, d time.Duration) (*transport.Client, error) {
	c, err := transport.DialTimeout(addr, d)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(d)
	return c, nil
}

// spawnMonitor starts monitord with its shipped defaults on dir's
// deployment file and data directory and waits for /readyz plus a first
// info reply. It returns the time from spawn to that reply.
func (f *monitorFixture) spawnMonitor() (time.Duration, error) {
	d, rpc, metrics, err := f.e.spawnReady("monitord", f.dir, func(rpc, metrics string) []string {
		return []string{"-params", filepath.Join(f.dir, "deployment.json"), "-listen", rpc,
			"-name", "mon", "-data", filepath.Join(f.dir, "data"), "-metrics", metrics}
	})
	if err != nil {
		return 0, err
	}
	f.d, f.rpc, f.metrics = d, rpc, metrics
	c, err := dialTimeout(rpc, readyCap)
	if err != nil {
		return 0, fmt.Errorf("%w\n%s", err, d.logTail())
	}
	defer c.Close()
	var info monInfo
	if err := c.Call("info", struct{}{}, &info); err != nil {
		return 0, fmt.Errorf("info: %w\n%s", err, d.logTail())
	}
	up := time.Since(d.started)
	pk := new(bls.PublicKey)
	if err := pk.SetBytes(info.BLSKey); err != nil {
		return 0, fmt.Errorf("monitor BLS key: %w", err)
	}
	if f.pk != nil && !f.pk.Equal(pk) {
		return 0, errors.New("monitor tree-head key changed across restart")
	}
	f.pk = pk
	return up, nil
}

// newMonitorFixture boots a fresh durable monitor and seeds it with the
// given pre-minted leaves in submitbatch frames of seedBatch.
func newMonitorFixture(e *env, m *mint, leaves []leaf) (f *monitorFixture, err error) {
	dir, err := e.dir("mon")
	if err != nil {
		return nil, err
	}
	f = &monitorFixture{e: e, dir: dir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := deployfile.FromParams(m.params, nil).Write(filepath.Join(dir, "deployment.json")); err != nil {
		return nil, err
	}
	if _, err := f.spawnMonitor(); err != nil {
		return nil, err
	}
	c, err := dialTimeout(f.rpc, readyCap)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for off := 0; off < len(leaves); off += seedBatch {
		end := min(off+seedBatch, len(leaves))
		envs := make([]*audit.AttestedStatusEnvelope, 0, end-off)
		for _, l := range leaves[off:end] {
			envs = append(envs, l.env)
		}
		var replies []submitReply
		if err := c.Call("submitbatch", map[string]any{"envelopes": envs}, &replies); err != nil {
			return nil, fmt.Errorf("seeding at %d: %w\n%s", off, err, f.d.logTail())
		}
		if len(replies) != len(envs) {
			return nil, fmt.Errorf("seeding at %d: %d replies for %d envelopes", off, len(replies), len(envs))
		}
		for i, r := range replies {
			if r.Error != "" || r.Alert != nil || r.LogIndex != off+i {
				return nil, fmt.Errorf("seeding leaf %d: index %d alert %v error %q", off+i, r.LogIndex, r.Alert != nil, r.Error)
			}
		}
	}
	f.leaves = append(f.leaves, leaves...)
	head, err := f.verifiedHead(c, uint64(len(leaves)))
	if err != nil {
		return nil, err
	}
	f.head = head
	f.setup = time.Since(f.d.started)
	return f, nil
}

// verifiedHead waits for the serving tier to publish a head of at least
// size (the head pump signs asynchronously after an append) and verifies
// its BLS signature under the monitor's key.
func (f *monitorFixture) verifiedHead(c *transport.Client, size uint64) (aolog.BLSSignedHead, error) {
	var head aolog.BLSSignedHead
	deadline := time.Now().Add(readyCap)
	for {
		if err := c.Call("headbls", struct{}{}, &head); err != nil {
			return head, fmt.Errorf("headbls: %w", err)
		}
		if head.Size >= size {
			break
		}
		if time.Now().After(deadline) {
			return head, fmt.Errorf("published head stuck at size %d, want %d", head.Size, size)
		}
		time.Sleep(time.Millisecond)
	}
	if !aolog.VerifyHeadBLS(f.pk, &head) {
		return head, errors.New("head signature does not verify under the monitor's BLS key")
	}
	return head, nil
}

func (f *monitorFixture) close() {
	if f.d != nil {
		f.d.kill()
	}
	os.RemoveAll(f.dir)
}

// deployFixture is one running `trustdomaind -demo -n 3 -t 2`.
type deployFixture struct {
	d       *daemon
	dir     string
	metrics string
	params  audit.Params
	tk      *bls.ThresholdKey
	setup   time.Duration // spawn -> first consistent audit
}

func newDeployFixture(e *env) (*deployFixture, error) {
	dir, err := e.dir("dep")
	if err != nil {
		return nil, err
	}
	paramsPath := filepath.Join(dir, "deployment.json")
	d, _, metrics, err := e.spawnReady("trustdomaind", dir, func(_, metrics string) []string {
		return []string{"-demo", "-n", "3", "-t", "2", "-params", paramsPath, "-metrics", metrics}
	})
	if err != nil {
		return nil, err
	}
	f := &deployFixture{d: d, dir: dir, metrics: metrics}
	// The parameters file and refresh key land right after the metrics
	// endpoint comes up; the key is written last.
	deadline := time.Now().Add(readyCap)
	for {
		if _, err := os.Stat(paramsPath + ".refresh-key"); err == nil {
			break
		}
		if d.exited() || time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("trustdomaind never wrote its parameters:\n%s", d.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
	file, err := deployfile.Read(paramsPath)
	if err == nil {
		f.params, err = file.Params()
	}
	if err == nil {
		f.tk, err = file.ThresholdKey()
	}
	if err == nil && f.tk == nil {
		err = errors.New("deployment file has no threshold key")
	}
	if err == nil {
		err = auditOnce(f.params)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	f.setup = time.Since(d.started)
	return f, nil
}

func (f *deployFixture) close() {
	f.d.kill()
	os.RemoveAll(f.dir)
}

// auditOnce is the paper's user audit exactly as `dtclient audit` runs
// it: a fresh client, every domain's attested status and history, and a
// consistent report required.
func auditOnce(params audit.Params) error {
	c := audit.NewClient(params)
	c.SetCallTimeout(opTimeout)
	defer c.Close()
	rep, err := c.Audit()
	if err != nil {
		return err
	}
	if !rep.Consistent {
		return fmt.Errorf("audit inconsistent: %v", rep.Findings)
	}
	return nil
}

// rpcInvoker adapts the deployment's domain list to blsapp.Invoker over
// persistent connections, as cmd/dtclient does. sp, when set, records one
// span per invoke RPC.
type rpcInvoker struct {
	params audit.Params
	conns  []*transport.Client
	sp     *spans
}

func (r *rpcInvoker) NumDomains() int { return len(r.params.Domains) }

func (r *rpcInvoker) Invoke(i int, request []byte) ([]byte, error) {
	for len(r.conns) < len(r.params.Domains) {
		r.conns = append(r.conns, nil)
	}
	if r.conns[i] == nil {
		c, err := dial(r.params.Domains[i].Addr)
		if err != nil {
			return nil, err
		}
		r.conns[i] = c
	}
	var resp domain.InvokeResponse
	t0 := r.sp.start()
	err := r.conns[i].Call("invoke", domain.InvokeRequest{Request: request}, &resp)
	r.sp.end("domain.invoke", t0)
	if err != nil {
		return nil, err
	}
	return resp.Response, nil
}

func (r *rpcInvoker) close() {
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
}
