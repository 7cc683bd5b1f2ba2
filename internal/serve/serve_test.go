package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/gossip"
	"repro/internal/monitor"
	"repro/internal/tee"
	"repro/internal/transport"
)

func mustKey(t *testing.T) *bls.SecretKey {
	t.Helper()
	sk, _, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// fixture is a monitor fed by a simulated enclave, the same stack
// auditing clients talk to in production.
type fixture struct {
	dev    *framework.Developer
	fw     *framework.Framework
	params audit.Params
	mon    *monitor.Monitor
	tk     *bls.ThresholdKey
	state  *blsapp.ShareState
	nonce  int
}

func newFixture(t *testing.T) *fixture {
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
	params := audit.Params{
		Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []audit.DomainInfo{{Name: "d1", HasTEE: true}},
	}
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
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
	mon := monitor.New(params, mustKey(t))
	return &fixture{dev: dev, fw: fw, params: params, mon: mon, tk: tk, state: state}
}

// appendErr grows the monitor's log by n fresh attested statuses; safe
// to call from non-test goroutines.
func (f *fixture) appendErr(n int) error {
	envs := make([]*audit.AttestedStatusEnvelope, n)
	for i := range envs {
		f.nonce++
		nonce := []byte(fmt.Sprintf("nonce-%d", f.nonce))
		as := f.fw.AttestedStatus(nonce)
		envs[i] = &audit.AttestedStatusEnvelope{
			Nonce: nonce,
			Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
		}
	}
	for _, o := range f.mon.SubmitBatch(envs) {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// append is appendErr for the test goroutine.
func (f *fixture) append(t *testing.T, n int) {
	t.Helper()
	if err := f.appendErr(n); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) attach(t *testing.T, opts Options) *Tier {
	t.Helper()
	if opts.Source == "" {
		opts.Source = "mon"
	}
	if opts.SourcePK == nil {
		pkb := f.mon.BLSPublicKey().Bytes()
		opts.SourcePK = pkb[:]
	}
	tier, err := Attach(f.mon, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	f.mon.SetAppendHook(tier.Kick)
	return tier
}

// waitHeadSize blocks until the tier publishes a head of the given size.
func waitHeadSize(t *testing.T, tier *Tier, size int) aolog.BLSSignedHead {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		head, err := tier.HeadBLS()
		if err != nil {
			t.Fatalf("waiting for head size %d: %v", size, err)
		}
		if int(head.Size) >= size {
			if int(head.Size) != size {
				t.Fatalf("head overshot: %d, want %d", head.Size, size)
			}
			return head
		}
		if time.Now().After(deadline) {
			t.Fatalf("head stuck at %d, want %d", head.Size, size)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCachedProofsMatchFreshAcrossHeads is the cache-correctness
// acceptance test: every proof served from cache must be byte-for-byte
// identical to a fresh computation against the same tree size, before
// and after head advances, for both inclusion and consistency proofs.
func TestCachedProofsMatchFreshAcrossHeads(t *testing.T) {
	f := newFixture(t)
	f.append(t, 5)
	tier := f.attach(t, Options{})

	check := func(size int) {
		t.Helper()
		for idx := 0; idx < size; idx++ {
			// First request computes and caches; second must hit.
			for pass := 0; pass < 2; pass++ {
				resp, err := tier.Proof(&ProofRequest{Index: idx, Size: size})
				if err != nil {
					t.Fatal(err)
				}
				wantPayload, wantProof, err := f.mon.ProveInclusionAt(idx, size)
				if err != nil {
					t.Fatal(err)
				}
				want := mustJSON(t, &ProofResponse{Index: idx, Size: size, Payload: wantPayload, Proof: wantProof, Head: resp.Head})
				if got := mustJSON(t, resp); string(got) != string(want) {
					t.Fatalf("cached proof (%d@%d pass %d) diverged:\n got %s\nwant %s", idx, size, pass, got, want)
				}
			}
		}
	}

	head5 := waitHeadSize(t, tier, 5)
	check(5)

	// Advance the head twice; old fixed-size proofs must still serve
	// byte-identically (immutable facts), new-size proofs must match
	// fresh computation too.
	f.append(t, 3)
	head8 := waitHeadSize(t, tier, 8)
	check(5)
	check(8)
	f.append(t, 4)
	waitHeadSize(t, tier, 12)
	check(8)
	check(12)

	// Consistency proofs: cached vs fresh, byte for byte.
	for _, span := range [][2]int{{5, 8}, {8, 12}, {5, 12}, {5, 0}} {
		for pass := 0; pass < 2; pass++ {
			got, err := tier.Consistency(span[0], span[1])
			if err != nil {
				t.Fatal(err)
			}
			newSize := span[1]
			if newSize == 0 {
				newSize = 12
			}
			want, err := f.mon.ProveConsistencyBetween(span[0], newSize)
			if err != nil {
				t.Fatal(err)
			}
			if string(mustJSON(t, got)) != string(mustJSON(t, want)) {
				t.Fatalf("cached consistency %v pass %d diverged", span, pass)
			}
			if !aolog.VerifyShardConsistency(head5.Head, head8.Head, mustFresh(t, f, 5, 8)) {
				t.Fatal("sanity: fresh consistency does not verify")
			}
		}
	}

	hits := tier.reg.Value("serve_cache_hits_total")
	misses := tier.reg.Value("serve_cache_misses_total")
	if hits == 0 || misses == 0 || hits < misses {
		t.Fatalf("cache did not amortize: hits=%v misses=%v", hits, misses)
	}
	// A proof request without an explicit size binds to the current head
	// and carries its signature.
	resp, err := tier.Proof(&ProofRequest{Index: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Size != 12 || resp.Head == nil {
		t.Fatalf("current-head proof = size %d head %v", resp.Size, resp.Head)
	}
	if !aolog.VerifyHeadBLS(f.mon.BLSPublicKey(), resp.Head) {
		t.Fatal("attached head signature invalid")
	}
	if !aolog.VerifyShardInclusion(resp.Payload, resp.Proof, resp.Head.Head) {
		t.Fatal("proof does not verify against the attached head")
	}
}

func mustFresh(t *testing.T, f *fixture, a, b int) *aolog.ShardConsistencyProof {
	t.Helper()
	p, err := f.mon.ProveConsistencyBetween(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fakeBackend lets tests script backend behavior (rollbacks, forks,
// latency) that a real monitor refuses to exhibit.
type fakeBackend struct {
	mu      sync.Mutex
	logs    []*aolog.ShardedLog // active log is the last entry
	signBLS func(size uint64, head aolog.Digest) aolog.BLSSignedHead

	proofDelay atomic.Int64  // nanoseconds added to ProveInclusionAt
	hold       chan struct{} // when set (before any caller starts), ProveInclusionAt waits for it to close
	inclusions atomic.Uint64
}

func newFakeBackend(t *testing.T, leaves int) (*fakeBackend, *aolog.ShardedLog) {
	t.Helper()
	log, err := aolog.NewShardedLog(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		log.Append([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	sk := mustKey(t)
	fb := &fakeBackend{logs: []*aolog.ShardedLog{log}}
	fb.signBLS = func(size uint64, head aolog.Digest) aolog.BLSSignedHead {
		return aolog.SignHeadBLS(sk, size, head)
	}
	return fb, log
}

func (b *fakeBackend) active() *aolog.ShardedLog {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.logs[len(b.logs)-1]
}

// swap replaces the active log — simulating a backend that forked or
// rolled back behind the tier's back.
func (b *fakeBackend) swap(log *aolog.ShardedLog) {
	b.mu.Lock()
	b.logs = append(b.logs, log)
	b.mu.Unlock()
}

func (b *fakeBackend) Len() int { return b.active().Len() }

func (b *fakeBackend) TreeHeadBLS() (aolog.BLSSignedHead, error) {
	log := b.active()
	return b.signBLS(uint64(log.Len()), log.SuperRoot()), nil
}

func (b *fakeBackend) ProveInclusionAt(index, n int) ([]byte, *aolog.ShardInclusionProof, error) {
	if b.hold != nil {
		<-b.hold
	}
	if d := b.proofDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	b.inclusions.Add(1)
	proof, err := b.active().ProveInclusionAt(index, n)
	if err != nil {
		return nil, nil, err
	}
	return []byte(fmt.Sprintf("leaf-%d", index)), proof, nil
}

func (b *fakeBackend) ProveConsistencyBetween(oldSize, newSize int) (*aolog.ShardConsistencyProof, error) {
	return b.active().ProveConsistencyBetween(oldSize, newSize)
}

// grow appends leaves to the active log up to size n and waits for the
// tier to publish the head at n.
func (b *fakeBackend) grow(t *testing.T, tier *Tier, n int) {
	t.Helper()
	log := b.active()
	for i := log.Len(); i < n; i++ {
		log.Append([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	tier.Kick()
	waitHeadSize(t, tier, n)
}

// TestTierPoisonsOnRollback: a backend whose log shrinks below the
// published head must poison the tier — every subsequent request fails
// closed, and nothing is ever served from the rolled-back state.
func TestTierPoisonsOnRollback(t *testing.T) {
	fb, _ := newFakeBackend(t, 6)
	tier, err := Attach(fb, Options{Source: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	if _, err := tier.Proof(&ProofRequest{Index: 2}); err != nil {
		t.Fatal(err)
	}

	short, err := aolog.NewShardedLog(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		short.Append([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	fb.swap(short)
	tier.Kick()

	waitPoison(t, tier)
	if _, err := tier.Proof(&ProofRequest{Index: 0}); err == nil {
		t.Fatal("poisoned tier served a proof")
	}
	if _, err := tier.HeadBLS(); err == nil {
		t.Fatal("poisoned tier served a head")
	}
	if _, err := tier.Consistency(3, 0); err == nil {
		t.Fatal("poisoned tier served a consistency proof")
	}
	if heads := tier.CurrentHeads(); heads != nil {
		t.Fatalf("poisoned tier still primes subscribers: %v", heads)
	}
}

// TestTierPoisonsOnContradiction: a backend that grows but onto a
// DIFFERENT history (fork) fails the tier's consistency self-check; the
// contradicted head must never reach the cache or clients.
func TestTierPoisonsOnContradiction(t *testing.T) {
	fb, _ := newFakeBackend(t, 4)
	tier, err := Attach(fb, Options{Source: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	honest, err := tier.HeadBLS()
	if err != nil {
		t.Fatal(err)
	}

	fork, err := aolog.NewShardedLog(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		fork.Append([]byte(fmt.Sprintf("FORKED-%d", i)))
	}
	fb.swap(fork)
	tier.Kick()

	waitPoison(t, tier)
	// The published head never advanced onto the fork: subscribers and
	// cache alike only ever saw the honest head.
	if got := tier.head.Load().bls; got.Size != honest.Size || got.Head != honest.Head {
		t.Fatalf("published head moved onto the fork: %d/%x", got.Size, got.Head)
	}
	if _, err := tier.Proof(&ProofRequest{Index: 0}); err == nil {
		t.Fatal("poisoned tier served a proof from a contradicted head")
	}
}

// provenBackend records every size the tier has proved a head at: the
// size of the first head it signs (Attach publishes that one; it has no
// predecessor to check against) and the newSize of every
// ProveConsistencyBetween — in a test whose readers never ask for a
// consistency proof, those are exactly the head pump's self-checks.
type provenBackend struct {
	Backend
	mu     sync.Mutex
	proven map[int]bool
}

func (b *provenBackend) TreeHeadBLS() (aolog.BLSSignedHead, error) {
	h, err := b.Backend.TreeHeadBLS()
	b.mu.Lock()
	if err == nil && len(b.proven) == 0 {
		b.proven[int(h.Size)] = true
	}
	b.mu.Unlock()
	return h, err
}

func (b *provenBackend) ProveConsistencyBetween(oldSize, newSize int) (*aolog.ShardConsistencyProof, error) {
	b.mu.Lock()
	b.proven[newSize] = true
	b.mu.Unlock()
	return b.Backend.ProveConsistencyBetween(oldSize, newSize)
}

// TestNoHeadLeavesTheTierUnproven states the head pump's fail-closed
// rule for every exit at once: while 200 appends race two readers and a
// subscriber, every head returned by HeadBLS, attached to a
// ProofResponse, acked by subscribe or pushed has a size the tier first
// proved consistent with the head it published before.
func TestNoHeadLeavesTheTierUnproven(t *testing.T) {
	f := newFixture(t)
	f.append(t, 3)
	pb := &provenBackend{Backend: f.mon, proven: make(map[int]bool)}
	tier, err := Attach(pb, Options{Source: "mon"})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	f.mon.SetAppendHook(tier.Kick)
	srv := transport.NewServer()
	tier.Register(srv)
	ln := transport.NewMemListener()
	defer ln.Close()
	go srv.Serve(ln)

	var mu sync.Mutex
	left := map[string]map[int]bool{} // exit -> sizes of the heads that left through it
	note := func(exit string, size uint64) {
		mu.Lock()
		defer mu.Unlock()
		if left[exit] == nil {
			left[exit] = map[int]bool{}
		}
		left[exit][int(size)] = true
	}

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	sub := NewSubscriber(conn)
	defer sub.Close()
	// VerifyHead sees every acked and pushed head, before the guard.
	sub.VerifyHead = func(gh *gossip.GossipHead) error {
		note("subscribe ack or push", gh.Head.Size)
		return nil
	}
	if err := sub.Subscribe("auditor"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				head, err := tier.HeadBLS()
				if err != nil {
					t.Error(err)
					return
				}
				note("HeadBLS", head.Size)
				resp, err := tier.Proof(&ProofRequest{Index: i % 3})
				if err != nil {
					t.Error(err)
					return
				}
				for _, h := range []*aolog.BLSSignedHead{resp.Head, resp.StaleHead} {
					if h != nil {
						note("ProofResponse", h.Size)
					}
				}
			}
		}()
	}
	const appends = 200
	for i := 0; i < appends; i++ {
		f.append(t, 1)
	}
	waitHeadSize(t, tier, 3+appends)
	close(stop)
	readers.Wait()
	// The push of the last head is asynchronous: wait for it to arrive.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		arrived := left["subscribe ack or push"][3+appends]
		mu.Unlock()
		if arrived {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the last head was never pushed")
		}
	}

	pb.mu.Lock()
	defer pb.mu.Unlock()
	mu.Lock()
	defer mu.Unlock()
	for _, exit := range []string{"HeadBLS", "ProofResponse", "subscribe ack or push"} {
		if len(left[exit]) < 2 {
			t.Errorf("%s handed out heads at %d sizes; the race never happened", exit, len(left[exit]))
		}
		for size := range left[exit] {
			if !pb.proven[size] {
				t.Errorf("%s handed out a head at size %d, which the tier never proved", exit, size)
			}
		}
	}
}

func waitPoison(t *testing.T, tier *Tier) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tier.failed() == nil {
		if time.Now().After(deadline) {
			t.Fatal("tier never poisoned")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressureDegradesToStaleVerifiedHead is the overload acceptance
// test: past the admission limit, slow-path clients receive the typed
// Overloaded response carrying the last stale-but-verified head and a
// proof that passes a full client-side audit, while clients on cached
// keys see latency unaffected by the saturated miss path.
func TestBackpressureDegradesToStaleVerifiedHead(t *testing.T) {
	fb, _ := newFakeBackend(t, 4)
	tier, err := Attach(fb, Options{Source: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	// One computation slot and no queue, installed before any traffic: the
	// production sizes would need thousands of slow clients to saturate.
	tier.gate = newGate(1, 0)

	// Warm every proof at the initial head (size 4), then advance to 6 so
	// size-4 becomes the stale-but-verified snapshot.
	for i := 0; i < 4; i++ {
		if _, err := tier.Proof(&ProofRequest{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	staleWant, err := tier.HeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	log := fb.active()
	for i := 4; i < 6; i++ {
		log.Append([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	tier.Kick()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := tier.HeadBLS()
		if err != nil {
			t.Fatal(err)
		}
		if h.Size == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("head never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	// Warm one hot key at the new head for the fast-client measurement.
	if _, err := tier.Proof(&ProofRequest{Index: 1}); err != nil {
		t.Fatal(err)
	}

	// Saturate the single computation slot with a slow miss.
	const delay = 50 * time.Millisecond
	fb.proofDelay.Store(int64(delay))
	slotHeld := make(chan struct{})
	slowDone := make(chan error, 1)
	go func() {
		close(slotHeld)
		_, err := tier.Proof(&ProofRequest{Index: 3, Size: 5})
		slowDone <- err
	}()
	<-slotHeld
	// Wait until the slow computation actually occupies the slot.
	for len(tier.gate.slots) == 0 {
		time.Sleep(time.Millisecond)
	}

	// Overloaded miss on the CURRENT head degrades to the stale head.
	resp, err := tier.Proof(&ProofRequest{Index: 0})
	if err != nil {
		t.Fatalf("degradation path errored: %v", err)
	}
	if !resp.Overloaded || resp.StaleHead == nil {
		t.Fatalf("want overloaded+stale response, got %+v", resp)
	}
	if resp.StaleHead.Size != staleWant.Size || resp.StaleHead.Head != staleWant.Head {
		t.Fatal("stale head is not the previously published head")
	}
	// Full client-side audit of the degraded answer: the stale head is
	// the tier's own earlier publication (same signature bytes) and the
	// proof verifies against THAT head.
	if string(resp.StaleHead.Signature) != string(staleWant.Signature) {
		t.Fatal("stale head signature is not the one originally published")
	}
	if !aolog.VerifyShardInclusion(resp.Payload, resp.Proof, resp.StaleHead.Head) {
		t.Fatal("degraded proof does not verify against the stale head")
	}

	// An explicit fixed-size request must NOT silently degrade: it gets
	// the typed overload error instead.
	if _, err := tier.Proof(&ProofRequest{Index: 2, Size: 6}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fixed-size overload: got %v, want ErrOverloaded", err)
	}

	// Fast clients (cached keys) are unaffected: p99 far below the
	// saturated computation delay.
	const fastReqs = 200
	latencies := make([]time.Duration, 0, fastReqs)
	for i := 0; i < fastReqs; i++ {
		start := time.Now()
		r, err := tier.Proof(&ProofRequest{Index: 1})
		if err != nil || r.Overloaded {
			t.Fatalf("fast client degraded: %v %+v", err, r)
		}
		latencies = append(latencies, time.Since(start))
	}
	p99 := percentileDur(latencies, 0.99)
	if p99 >= delay/2 {
		t.Fatalf("fast-client p99 %v not isolated from %v slow path", p99, delay)
	}

	if err := <-slowDone; err != nil {
		t.Fatalf("slow client errored: %v", err)
	}
	refused := tier.reg.Value("serve_admission_refused_total")
	degraded := tier.reg.Value("serve_degraded_total")
	if refused == 0 || degraded == 0 {
		t.Fatalf("admission counters never moved: refused=%v degraded=%v", refused, degraded)
	}
}

func percentileDur(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ { // insertion sort: n is small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(float64(len(sorted)-1) * p)
	return sorted[idx]
}

// TestCoalescingSingleFlight: many concurrent requests for one cold key
// run the backend computation exactly once, also when the head they asked
// at retires before it finishes.
func TestCoalescingSingleFlight(t *testing.T) {
	fb, _ := newFakeBackend(t, 8)
	fb.proofDelay.Store(int64(5 * time.Millisecond))
	tier, err := Attach(fb, Options{Source: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tier.Proof(&ProofRequest{Index: 5})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := fb.inclusions.Load(); n != 1 {
		t.Fatalf("computation ran %d times for one key, want 1", n)
	}
	if coalesced := tier.reg.Value("serve_cache_coalesced_total"); coalesced != callers-1 {
		t.Fatalf("coalesced = %v, want %d", coalesced, callers-1)
	}

	// Errors are never cached: a request past the log end fails every
	// time and leaves no entry behind.
	if _, err := tier.Proof(&ProofRequest{Index: 99}); err == nil {
		t.Fatal("out-of-range proof succeeded")
	}
	before := tier.reg.Value("serve_cache_entries")
	if _, err := tier.Proof(&ProofRequest{Index: 99}); err == nil {
		t.Fatal("out-of-range proof succeeded on retry")
	}
	if after := tier.reg.Value("serve_cache_entries"); after != before {
		t.Fatal("failed computation was cached")
	}

	// A flight that outlives its head: callers at head 8 join one held
	// computation, and the head advances twice, retiring 8, while it
	// runs. Every caller still gets the one proof, under head 8.
	head8, err := tier.HeadBLS()
	if err != nil {
		t.Fatal(err)
	}
	computed := fb.inclusions.Load()
	joined := tier.reg.Value("serve_cache_coalesced_total") + callers - 1
	fb.hold = make(chan struct{})
	resps := make(chan *ProofResponse, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := tier.Proof(&ProofRequest{Index: 6})
			if err != nil {
				t.Error(err)
				return
			}
			resps <- resp
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); tier.reg.Value("serve_cache_coalesced_total") < joined; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("callers never joined one flight")
		}
	}
	fb.grow(t, tier, 10)
	fb.grow(t, tier, 12)
	close(fb.hold)
	wg.Wait()
	close(resps)
	var first *ProofResponse
	for resp := range resps {
		if first == nil {
			first = resp
		}
		if resp.Proof != first.Proof || resp.Size != 8 || resp.Head == nil || string(resp.Head.Signature) != string(head8.Signature) {
			t.Fatalf("caller got %+v, want the one proof under head 8", resp)
		}
		if !aolog.VerifyShardInclusion(resp.Payload, resp.Proof, head8.Head) {
			t.Fatal("proof does not verify against head 8")
		}
	}
	if first == nil {
		t.FailNow() // every caller errored
	}
	if n := fb.inclusions.Load() - computed; n != 1 {
		t.Fatalf("computation ran %d times for callers at a retiring head, want 1", n)
	}
}
