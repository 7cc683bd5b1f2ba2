package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/gossip"
	"repro/internal/serve"
	"repro/internal/transport"
)

const (
	readConns = 2   // closed-loop connections of the read workloads
	hotSet    = 128 // read_hot draws from this many newest leaves
	// append_durable: 250 submits a second, about half of what one
	// connection driven flat out gets acknowledged.
	durablePeriod = 4 * time.Millisecond
	submitPeriod  = 50 * time.Millisecond // append_to_audit: 20 submits a second
	auditsPerSig  = 8                     // deploy_audit: audits per threshold signature
	sampleEvery   = 4                     // deploy_audit: cycles between traced span-sampling passes
)

// allWorkloads is every workload the program knows, in the order a full
// run goes through them.
var allWorkloads = []string{"read_hot", "read_cold", "append_durable", "append_to_audit", "deploy_audit"}

func newDriver(e *env, name string, cfg config) (driver, error) {
	switch name {
	case "read_hot", "read_cold", "append_durable", "append_to_audit":
		m, err := newMint(cfg.seed)
		if err != nil {
			return nil, err
		}
		base := monDriver{e: e, cfg: cfg, m: m, seeded: m.batch(cfg.leaves), nconn: 1}
		switch name {
		case "read_hot":
			base.nconn = readConns
			return &readHot{monDriver: base}, nil
		case "read_cold":
			base.nconn = readConns
			return &readCold{monDriver: base}, nil
		case "append_durable":
			return &appendDurable{monDriver: base}, nil
		}
		return &appendToAudit{monDriver: base}, nil
	case "deploy_audit":
		return &deployAudit{e: e, cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// monDriver is what the four monitor workloads share: one mint, the
// pre-minted seed leaves, and the current `monitord -data` fixture.
type monDriver struct {
	e      *env
	cfg    config
	m      *mint
	seeded []leaf
	nconn  int // generator connections
	f      *monitorFixture
	ks     []*conn
	phases uint64 // windows run so far; varies the per-window RNG streams
}

func (w *monDriver) setup() (time.Duration, error) {
	w.close()
	f, err := newMonitorFixture(w.e, w.m, w.seeded)
	if err != nil {
		return 0, err
	}
	w.f = f
	w.ks = make([]*conn, w.nconn)
	for i := range w.ks {
		w.ks[i] = &conn{addr: f.rpc}
	}
	return f.setup, nil
}

func (w *monDriver) close() {
	for _, k := range w.ks {
		k.close()
	}
	if w.f != nil {
		w.f.close()
		w.f = nil
	}
}

func (w *monDriver) pid() int                          { return w.f.d.pid() }
func (w *monDriver) metrics() string                   { return w.f.metrics }
func (w *monDriver) conns() int                        { return w.nconn }
func (w *monDriver) epilogue(map[string]float64) error { return nil }

// rng is the deterministic stream for one worker in one window.
func (w *monDriver) rng(worker int) *rand.Rand {
	return rand.New(rand.NewPCG(w.cfg.seed, w.phases<<8|uint64(worker)))
}

// checkProof verifies one inclusion reply the way an auditing client
// does: the proof is for the index and size asked, it verifies against
// the given super-root, and the leaf is the envelope that was submitted.
func checkProof(payload []byte, p *aolog.ShardInclusionProof, index, size int, root aolog.Digest, want []byte) error {
	switch {
	case p == nil:
		return fmt.Errorf("%w: reply carries no proof", errVerify)
	case p.GlobalIndex != index || p.TreeSize != size:
		return fmt.Errorf("%w: proof is for (%d,%d), asked (%d,%d)", errVerify, p.GlobalIndex, p.TreeSize, index, size)
	case !aolog.VerifyShardInclusion(payload, p, root):
		return fmt.Errorf("%w: inclusion proof for leaf %d at size %d", errVerify, index, size)
	case !bytes.Equal(payload, want):
		return fmt.Errorf("%w: leaf %d is not the submitted envelope", errVerify, index)
	}
	return nil
}

// ---- read_hot ----

type readHot struct{ monDriver }

func (w *readHot) window(d time.Duration, traced bool) *phase {
	w.phases++
	workers := make([]func(*spans) outcome, w.nconn)
	for i := range workers {
		k, rng, size := w.ks[i], w.rng(i), len(w.f.leaves)
		var trusted *aolog.BLSSignedHead // last head this connection verified
		workers[i] = func(sp *spans) outcome {
			index := size - 1 - rng.IntN(min(hotSet, size))
			var resp serve.ProofResponse
			t0 := sp.start()
			err := k.call(serve.KindProof, serve.ProofRequest{Index: index}, &resp)
			sp.end("transport.call", t0)
			if err != nil {
				return outcome{err: err}
			}
			if resp.Head == nil || resp.Overloaded {
				return outcome{err: fmt.Errorf("proof reply without the current head (overloaded=%v)", resp.Overloaded)}
			}
			if trusted == nil || trusted.Size != resp.Head.Size || trusted.Head != resp.Head.Head ||
				!bytes.Equal(trusted.Signature, resp.Head.Signature) {
				t0 = sp.start()
				ok := aolog.VerifyHeadBLS(w.f.pk, resp.Head)
				sp.end("bls.verify_head", t0)
				if !ok {
					return outcome{err: fmt.Errorf("%w: head signature at size %d", errVerify, resp.Head.Size)}
				}
				trusted = resp.Head
			}
			t0 = sp.start()
			err = checkProof(resp.Payload, resp.Proof, index, int(resp.Head.Size), resp.Head.Head, w.f.leaves[index].payload)
			sp.end("aolog.verify", t0)
			return outcome{err: err}
		}
	}
	return closedLoop(workers, d, traced)
}

func (w *readHot) layers(tr *phase, L map[string]float64) budget {
	return readLayers(tr, L, serve.KindProof)
}

// readLayers maps a read workload's traced window onto the transport
// rows: kind is the RPC kind whose server-side histogram times one
// operation's handler.
func readLayers(tr *phase, L map[string]float64, kind string) budget {
	call := tr.sp.mean("transport.call")
	server, _ := tr.dl.histMean("rpc_latency_seconds", "kind", kind)
	L["transport.call_us"] = us(call)
	L["transport.server_us"] = us(server)
	L["transport.wire_us"] = us(call - server)
	L["aolog.verify_us"] = us(tr.sp.mean("aolog.verify"))
	L["bls.verify_head_ms"] = ms(tr.sp.mean("bls.verify_head"))
	ops := tr.ops()
	return newBudget(tr.meanLat(classPrimary), map[string]time.Duration{
		"wire":          call - server,
		"server":        server,
		"client_verify": tr.sp.perOp("aolog.verify", ops) + tr.sp.perOp("bls.verify_head", ops),
	})
}

// ---- read_cold ----

type readCold struct{ monDriver }

func (w *readCold) window(d time.Duration, traced bool) *phase {
	w.phases++
	workers := make([]func(*spans) outcome, w.nconn)
	for i := range workers {
		k, rng, size := w.ks[i], w.rng(i), len(w.f.leaves)
		workers[i] = func(sp *spans) outcome {
			// An old client at size old catching up to the signed head.
			old := size/2 + rng.IntN(size-size/2)
			index := rng.IntN(old)
			t0 := sp.start()
			res, err := k.callBatch([]transport.BatchCall{
				{Kind: serve.KindProof, In: serve.ProofRequest{Index: index, Size: old}},
				{Kind: "consistency", In: serve.ConsistencyRequest{OldSize: old, NewSize: size}},
			})
			var resp serve.ProofResponse
			var cons aolog.ShardConsistencyProof
			if err == nil {
				err = res[0].Decode(&resp)
			}
			if err == nil {
				err = res[1].Decode(&cons)
			}
			sp.end("transport.call", t0)
			if err != nil {
				return outcome{err: err}
			}
			t0 = sp.start()
			defer func() { sp.end("aolog.verify", t0) }()
			if cons.OldSize != old || cons.NewSize != size {
				return outcome{err: fmt.Errorf("%w: consistency proof is %d..%d, asked %d..%d", errVerify, cons.OldSize, cons.NewSize, old, size)}
			}
			oldRoot, err := cons.OldSuperRoot()
			if err != nil || !aolog.VerifyShardConsistency(oldRoot, w.f.head.Head, &cons) {
				return outcome{err: fmt.Errorf("%w: consistency %d..%d against the signed head", errVerify, old, size)}
			}
			return outcome{err: checkProof(resp.Payload, resp.Proof, index, old, oldRoot, w.f.leaves[index].payload)}
		}
	}
	return closedLoop(workers, d, traced)
}

func (w *readCold) layers(tr *phase, L map[string]float64) budget {
	return readLayers(tr, L, transport.BatchKind)
}

// ---- append_durable ----

type appendDurable struct {
	monDriver
	acked map[int]leaf // every acknowledged leaf of the current fixture, by log index
}

func (w *appendDurable) conns() int { return 0 }

func (w *appendDurable) setup() (time.Duration, error) {
	w.acked = map[int]leaf{}
	return w.monDriver.setup()
}

// window is an open loop over one connection: a submit is due every
// durablePeriod and timed from that instant to its acknowledgement, so a
// stall is charged to every submit it holds up. Driven as fast as it will
// go, the monitor settles for the length of a run into one of several
// rhythms between its submit handler and its head pump — a head signed
// per append, or per two — that differ by a third in throughput; at a
// fixed rate below that it signs one head per append, every run.
func (w *appendDurable) window(d time.Duration, traced bool) *phase {
	p := &phase{start: time.Now(), window: d, open: true}
	if traced {
		p.sp = newSpans()
	}
	k := w.ks[0]
	sched := schedule{start: p.start, period: durablePeriod}
	for i := 0; i < int(d/durablePeriod); i++ {
		// Minting (about 30 us) happens ahead of the due time, as a real
		// submitter's attestation fetch does.
		l, due := w.m.next(), sched.due(i)
		time.Sleep(time.Until(due))
		sent := time.Now()
		var r submitReply
		err := k.call("submit", l.env, &r)
		done := time.Now()
		p.lateMax = max(p.lateMax, lateness(due, sent))
		p.sp.add("late", sent.Sub(due))
		p.sp.add("transport.call", done.Sub(sent))
		if err == nil && r.Alert != nil {
			err = fmt.Errorf("%w: honest submission raised an alert", errVerify)
		}
		if err == nil {
			if _, dup := w.acked[r.LogIndex]; dup || r.LogIndex < len(w.seeded) {
				err = fmt.Errorf("%w: log index %d acknowledged twice", errVerify, r.LogIndex)
			}
			w.acked[r.LogIndex] = l
		}
		if err != nil {
			p.fail(err)
			continue
		}
		p.samples[classPrimary] = append(p.samples[classPrimary], sample{at: due.Sub(sched.start), lat: done.Sub(due)})
	}
	return p
}

// appendLayers maps an append workload's server-side series onto the
// store and monitor rows; ops is the leaves appended in the window.
func appendLayers(tr *phase, L map[string]float64, ops int) (submit, fsyncPerOp time.Duration) {
	submit, _ = tr.dl.histMean("rpc_latency_seconds", "kind", "submit")
	fsync, fsyncs := tr.dl.histMean("store_wal_fsync_seconds", "", "")
	leaves := tr.dl.of("store_appended_leaves_total")
	L["monitor.submit_server_us"] = us(submit)
	L["store.fsync_us"] = us(fsync)
	L["store.fsyncs_per_leaf"] = ratio(fsyncs, leaves)
	L["store.checkpoint_stall_ms"] = ms(tr.dl.histTotal("store_checkpoint_seconds", "", ""))
	L["serve.heads_signed_per_append"] = ratio(tr.dl.of("serve_heads_signed_total"), tr.dl.of("monitor_appends_total"))
	if ops > 0 {
		fsyncPerOp = tr.dl.histTotal("store_wal_fsync_seconds", "", "") / time.Duration(ops)
	}
	return submit, fsyncPerOp
}

func (w *appendDurable) layers(tr *phase, L map[string]float64) budget {
	submit, fsync := appendLayers(tr, L, tr.ops())
	call := tr.sp.mean("transport.call")
	L["transport.call_us"] = us(call)
	L["transport.server_us"] = us(submit)
	L["transport.wire_us"] = us(call - submit)
	return newBudget(tr.meanLat(classPrimary), map[string]time.Duration{
		"late":   tr.sp.mean("late"),
		"wire":   call - submit,
		"server": submit - fsync,
		"fsync":  fsync,
	})
}

// epilogue is the crash-durability check: SIGKILL the monitor, restart it
// on the same data directory, and require every acknowledged leaf to be
// present with its payload under a verified head that extends the last
// head verified before the kill. SIGKILL keeps the OS page cache, so this
// is process-crash durability, not power-loss durability.
func (w *appendDurable) epilogue(L map[string]float64) error {
	f := w.f
	size := len(w.seeded) + len(w.acked)
	for i := len(w.seeded); i < size; i++ {
		if _, ok := w.acked[i]; !ok {
			return fmt.Errorf("%w: acknowledged indices are not contiguous at %d", errVerify, i)
		}
	}
	k := w.ks[0]
	var before aolog.BLSSignedHead
	err := k.do(func(c *transport.Client) (err error) {
		before, err = f.verifiedHead(c, uint64(size))
		return err
	})
	if err != nil {
		return fmt.Errorf("head before the kill: %w", err)
	}
	L["store.bytes_per_leaf"] = float64(dirBytes(f.dir+"/data")) / float64(size)
	L["monitor.rss_peak_mb"] = procPeakRSSMB(f.d.pid())
	for _, k := range w.ks {
		k.close()
	}
	f.d.kill()
	up, err := f.spawnMonitor()
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	L["store.recovery_ms"] = ms(up)
	for _, k := range w.ks {
		k.addr = f.rpc
	}

	var after aolog.BLSSignedHead
	var cons aolog.ShardConsistencyProof
	err = k.do(func(c *transport.Client) (err error) {
		if after, err = f.verifiedHead(c, 0); err != nil {
			return err
		}
		return c.Call("consistency", serve.ConsistencyRequest{OldSize: int(before.Size), NewSize: int(after.Size)}, &cons)
	})
	if err != nil {
		return fmt.Errorf("head after the restart: %w", err)
	}
	lost := 0
	if after.Size < before.Size {
		lost = int(before.Size - after.Size)
	} else if cons.OldSize != int(before.Size) || cons.NewSize != int(after.Size) ||
		!aolog.VerifyShardConsistency(before.Head, after.Head, &cons) {
		return fmt.Errorf("%w: recovered head at size %d does not extend the head at size %d verified before the kill", errVerify, after.Size, before.Size)
	}
	// Every acknowledged leaf, in _batch frames of seedBatch proofs.
	for lo := len(w.seeded); lo < min(size, int(after.Size)); lo += seedBatch {
		hi := min(lo+seedBatch, size, int(after.Size))
		calls := make([]transport.BatchCall, 0, hi-lo)
		for i := lo; i < hi; i++ {
			calls = append(calls, transport.BatchCall{Kind: serve.KindProof, In: serve.ProofRequest{Index: i, Size: int(after.Size)}})
		}
		res, err := k.callBatch(calls)
		if err != nil {
			return fmt.Errorf("fetching proofs after the restart: %w", err)
		}
		for j := range res {
			var resp serve.ProofResponse
			if err := res[j].Decode(&resp); err != nil ||
				checkProof(resp.Payload, resp.Proof, lo+j, int(after.Size), after.Head, w.acked[lo+j].payload) != nil {
				lost++
			}
		}
	}
	L["store.lost_acked"] = float64(lost)
	if lost > 0 {
		return fmt.Errorf("%w: %d acknowledged leaves missing after SIGKILL and restart", errVerify, lost)
	}
	return nil
}

// ---- append_to_audit ----

// seenHead is one pushed head: when its frame reached the VerifyHead hook
// and when its signature had verified.
type seenHead struct {
	head             aolog.BLSSignedHead
	arrive, verified time.Time
}

// headLog is the verified pushed heads in arrival order. Sizes only grow,
// so the first head past an index is the first one covering that leaf.
type headLog struct {
	mu      sync.Mutex
	heads   []seenHead
	cur     int
	changed chan struct{} // closed and replaced on every append
}

func (l *headLog) add(h seenHead) {
	l.mu.Lock()
	l.heads = append(l.heads, h)
	close(l.changed)
	l.changed = make(chan struct{})
	l.mu.Unlock()
}

// covering waits until a verified head covers leaf index.
func (l *headLog) covering(index int, deadline time.Time) (seenHead, bool) {
	for {
		l.mu.Lock()
		for ; l.cur < len(l.heads); l.cur++ {
			if int(l.heads[l.cur].head.Size) > index {
				h := l.heads[l.cur]
				l.mu.Unlock()
				return h, true
			}
		}
		ch := l.changed
		l.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			return seenHead{}, false
		}
	}
}

type appendToAudit struct {
	monDriver
	sub *serve.Subscriber
	log *headLog
	bad atomic.Int64 // pushed heads that failed verification
}

func (w *appendToAudit) conns() int { return 0 }

func (w *appendToAudit) setup() (time.Duration, error) {
	w.close()
	d, err := w.monDriver.setup()
	if err != nil {
		return 0, err
	}
	// Connection B: the push channel, every pushed head BLS-verified.
	sub, err := serve.Dial(w.f.rpc)
	if err != nil {
		return 0, err
	}
	log := &headLog{changed: make(chan struct{})}
	pk := w.f.pk
	sub.VerifyHead = func(gh *gossip.GossipHead) error {
		h := seenHead{head: gh.Head, arrive: time.Now()}
		if !aolog.VerifyHeadBLS(pk, &gh.Head) {
			w.bad.Add(1)
			return errVerify
		}
		h.verified = time.Now()
		log.add(h)
		return nil
	}
	if err := sub.Subscribe("bench"); err != nil {
		sub.Close()
		return 0, fmt.Errorf("subscribe: %w", err)
	}
	w.sub, w.log = sub, log
	return d, nil
}

func (w *appendToAudit) close() {
	if w.sub != nil {
		w.sub.Close()
		w.sub = nil
	}
	w.monDriver.close()
}

// submitted is one open-loop submission handed from the submitter to the
// completer.
type submitted struct {
	due, sent, ack time.Time
	index          int
	l              leaf
	err            error
}

// window is the open loop: the submitter sends on schedule whether or not
// earlier leaves are auditable yet; the completer finishes each leaf once
// a verified pushed head covers it. Both use connection A, so at most two
// requests are ever in flight.
func (w *appendToAudit) window(d time.Duration, traced bool) *phase {
	w.phases++
	start := time.Now()
	p := &phase{start: start, window: d, open: true}
	if traced {
		p.sp = newSpans()
	}
	a := w.ks[0]
	sched := schedule{start: start, period: submitPeriod}
	n := int(d / submitPeriod)
	jobs := make(chan submitted, n) // one slot per scheduled submission: the submitter never blocks on the completer
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			j := submitted{due: sched.due(i), l: w.m.next()}
			time.Sleep(time.Until(j.due))
			j.sent = time.Now()
			var r submitReply
			j.err = a.call("submit", j.l.env, &r)
			j.ack = time.Now()
			if j.err == nil && r.Alert != nil {
				j.err = fmt.Errorf("%w: honest submission raised an alert", errVerify)
			}
			j.index = r.LogIndex
			jobs <- j
		}
	}()
	for j := range jobs {
		if late := lateness(j.due, j.sent); late > p.lateMax {
			p.lateMax = late
		}
		if j.err != nil {
			p.fail(j.err)
			continue
		}
		h, ok := w.log.covering(j.index, j.due.Add(opTimeout))
		if !ok {
			p.fail(fmt.Errorf("no verified pushed head covered leaf %d within %v", j.index, opTimeout))
			continue
		}
		var resp serve.ProofResponse
		t0 := time.Now()
		err := a.call(serve.KindProof, serve.ProofRequest{Index: j.index, Size: int(h.head.Size)}, &resp)
		t1 := time.Now()
		if err == nil {
			err = checkProof(resp.Payload, resp.Proof, j.index, int(h.head.Size), h.head.Head, j.l.payload)
		}
		done := time.Now()
		if err != nil {
			p.fail(err)
			continue
		}
		if done.Sub(start) > d {
			continue
		}
		// Booked to the slice it was due in, so every slice holds the same
		// number of operations however their completions bunch.
		p.samples[classPrimary] = append(p.samples[classPrimary], sample{at: j.due.Sub(start), lat: done.Sub(j.due)})
		p.aux = append(p.aux, h.verified.Sub(j.sent))
		if traced {
			p.sp.add("late", j.sent.Sub(j.due))
			p.sp.add("call.submit", j.ack.Sub(j.sent))
			p.sp.add("push.arrive", max(0, h.arrive.Sub(j.ack)))
			p.sp.add("bls.verify_head", h.verified.Sub(h.arrive))
			p.sp.add("call.proof", t1.Sub(t0))
			p.sp.add("aolog.verify", done.Sub(t1))
		}
	}
	if n := w.bad.Swap(0); n > 0 {
		p.fail(fmt.Errorf("%w: %d pushed heads failed BLS verification", errVerify, n))
	}
	return p
}

func (w *appendToAudit) layers(tr *phase, L map[string]float64) budget {
	ops := len(tr.samples[classPrimary])
	submit, fsync := appendLayers(tr, L, ops)
	proof, _ := tr.dl.histMean("rpc_latency_seconds", "kind", serve.KindProof)
	calls := tr.sp.mean("call.submit") + tr.sp.mean("call.proof")
	arrive := tr.sp.mean("push.arrive")
	L["transport.call_us"] = us(calls)
	L["transport.server_us"] = us(submit + proof)
	L["transport.wire_us"] = us(calls - submit - proof)
	L["serve.push_arrive_ms"] = ms(arrive)
	L["bls.verify_head_ms"] = ms(tr.sp.mean("bls.verify_head"))
	L["aolog.verify_us"] = us(tr.sp.mean("aolog.verify"))
	sort.Slice(tr.aux, func(i, j int) bool { return tr.aux[i] < tr.aux[j] })
	L["client.push_p50_ms"] = ms(quantile(tr.aux, 0.5))
	// The server signs each new head before pushing it, so the sign time
	// (the in-process probe, per head signed) is carved out of the wait
	// for the push frame.
	sign := min(arrive, time.Duration(L["serve.heads_signed_per_append"]*L["bls.sign_ms"]*float64(time.Millisecond)))
	return newBudget(tr.meanLat(classPrimary), map[string]time.Duration{
		"late":          tr.sp.mean("late"),
		"wire":          calls - submit - proof,
		"server":        submit + proof - fsync,
		"fsync":         fsync,
		"head_sign":     sign,
		"client_verify": tr.sp.mean("bls.verify_head") + tr.sp.mean("aolog.verify"),
		"push_wait":     arrive - sign,
	})
}

// ---- deploy_audit ----

type deployAudit struct {
	e         *env
	cfg       config
	f         *deployFixture
	inv       *rpcInvoker
	step      int  // operations started
	sampleDue bool // a traced window owes a span-sampling pass
}

func (w *deployAudit) setup() (time.Duration, error) {
	w.close()
	f, err := newDeployFixture(w.e)
	if err != nil {
		return 0, err
	}
	w.f, w.inv = f, &rpcInvoker{params: f.params}
	return f.setup, nil
}

func (w *deployAudit) close() {
	if w.inv != nil {
		w.inv.close()
		w.inv = nil
	}
	if w.f != nil {
		w.f.close()
		w.f = nil
	}
}

func (w *deployAudit) pid() int                          { return w.f.d.pid() }
func (w *deployAudit) metrics() string                   { return w.f.metrics }
func (w *deployAudit) conns() int                        { return 0 }
func (w *deployAudit) epilogue(map[string]float64) error { return nil }

// window repeats the user's cycle: auditsPerSig audits, each with a fresh
// client as `dtclient audit` makes one, then one threshold signature over
// the persistent invoker, verified under the group key. In a traced
// window every sampleEvery-th cycle also times the audit's building
// blocks one by one; that pass is not an operation.
func (w *deployAudit) window(d time.Duration, traced bool) *phase {
	cycle := auditsPerSig + 1
	work := func(sp *spans) outcome {
		w.inv.sp = sp
		if sp != nil && w.sampleDue {
			w.sampleDue = false
			return outcome{class: classNone, err: w.sampleSpans(sp)}
		}
		w.step++
		if w.step%cycle != 0 {
			return w.audit()
		}
		w.sampleDue = w.step%(cycle*sampleEvery) == 0
		msg := []byte(fmt.Sprintf("bench-%d-%d", w.cfg.seed, w.step))
		t0 := sp.start()
		sig, err := blsapp.ThresholdSign(w.inv, w.f.tk, msg)
		sp.end("blsapp.threshold_sign", t0)
		if err != nil {
			return outcome{class: classSecondary, err: err}
		}
		t0 = sp.start()
		ok := bls.Verify(&w.f.tk.GroupKey, msg, sig)
		sp.end("bls.verify_sig", t0)
		if !ok {
			return outcome{err: fmt.Errorf("%w: threshold signature under the group key", errVerify)}
		}
		return outcome{class: classSecondary}
	}
	return closedLoop([]func(*spans) outcome{work}, d, traced)
}

func (w *deployAudit) audit() outcome {
	if err := auditOnce(w.f.params); err != nil {
		return outcome{err: fmt.Errorf("%w: %v", errVerify, err)}
	}
	return outcome{}
}

// sampleSpans times what Audit() does per domain — fetch and verify the
// attested status, fetch and verify the history — through the public
// calls, then re-verifies each captured envelope alone to split client
// verification from the round trip.
func (w *deployAudit) sampleSpans(sp *spans) error {
	c := audit.NewClient(w.f.params)
	c.SetCallTimeout(opTimeout)
	defer c.Close()
	params := w.f.params
	for _, d := range params.Domains {
		t0 := time.Now()
		if _, err := c.FetchStatus(d.Name); err != nil { // dials first
			return err
		}
		first := time.Since(t0)
		t0 = time.Now()
		st, err := c.FetchStatus(d.Name)
		again := time.Since(t0)
		if err != nil {
			return err
		}
		sp.add("audit.fetch_status", again)
		sp.add("audit.connect", max(0, first-again))
		t0 = time.Now()
		hist, err := c.FetchHistory(d.Name)
		sp.end("audit.fetch_history", t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = audit.VerifyStatusEnvelope(&params, st)
		if err == nil {
			err = audit.VerifyHistoryEnvelope(&params, hist)
		}
		sp.end("audit.verify", t0)
		if err != nil {
			return fmt.Errorf("%w: %v", errVerify, err)
		}
	}
	return nil
}

func (w *deployAudit) layers(tr *phase, L map[string]float64) budget {
	domains := time.Duration(len(w.f.params.Domains))
	fetch := tr.sp.mean("audit.fetch_status") + tr.sp.mean("audit.fetch_history")
	verify := tr.sp.mean("audit.verify")
	L["audit.fetch_status_us"] = us(tr.sp.mean("audit.fetch_status"))
	L["audit.fetch_history_us"] = us(tr.sp.mean("audit.fetch_history"))
	L["domain.invoke_ms"] = ms(tr.sp.mean("domain.invoke"))
	L["blsapp.threshold_sign_ms"] = ms(tr.sp.mean("blsapp.threshold_sign"))
	L["bls.verify_sig_ms"] = ms(tr.sp.mean("bls.verify_sig"))
	L["client.sign_p50_ms"] = ms(quantile(sortedLats(tr.samples[classSecondary]), 0.5))
	// trustdomaind's domain servers publish no rpc_* series, so the round
	// trips cannot be split into wire and handler from outside: the whole
	// of it is booked as wire and the server row stays empty.
	return newBudget(tr.meanLat(classPrimary), map[string]time.Duration{
		"wire":          domains * (tr.sp.mean("audit.connect") + fetch - verify),
		"client_verify": domains * verify,
	})
}
