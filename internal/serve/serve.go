// Package serve is the million-client serving tier for monitors and
// witnesses: the layer that makes the transparency read path scale by
// amortizing shared work across clients instead of paying it per request
// (the HotNets "hypergrowth upgrade" move).
//
// Three mechanisms, composed:
//
//   - Proof cache + single-flight coalescing (cache.go). Inclusion and
//     consistency proofs are keyed on (tree size, leaf index) and
//     (old size, new size) — immutable facts about an append-only log —
//     so a hot proof is computed once per head, not once per client, and
//     concurrent requests for a cold key coalesce into one computation.
//     Tree heads are signed once per SIZE, not once per "headbls" call.
//
//   - STH push/subscription (hub.go, client.go). A "subscribe" RPC turns
//     the connection into a push channel: new BLS-signed heads go out to
//     every registered witness and subscribed client in one _batch frame,
//     cutting split-view detection latency below a polling/gossip round.
//
//   - Admission control + degradation (admission.go). Proof computation
//     runs behind a bounded gate; when the miss path saturates, requests
//     are answered from the last stale-but-verified head and its cached
//     proofs — a typed Overloaded response the client can still audit —
//     instead of queueing until they time out. Cache hits bypass the gate
//     entirely, so overload never adds head-of-line latency to hot keys.
//
// The tier never trusts its own cache across head changes blindly: every
// published head is checked append-only-consistent with its predecessor
// (VerifyShardConsistency) before anything is served under it, and a
// backend whose log regresses or contradicts itself poisons the tier —
// it fails closed rather than serve proofs from a forked head.
//
// OWNS: the proof cache and its single-flight table; the head pump, its
// self-check and the poison state; admission and degradation; the Hub's
// per-subscriber coalescing; the subscribe/unsubscribe/push_heads kinds
// and, on the client side (Subscriber), the VerifyHead hook, the
// per-source monotonicity guard and when to subscribe again.
//
// MUST NOT DO: read or write a frame, keep a request-ID counter or a
// table of calls in flight, or dial (a Subscriber rides a
// transport.Client, the one frame loop); sign anything itself (the
// backend signs); serve from a head it has not checked against its
// predecessor.
//
// MUST NOT import: any repro/internal package except aolog, gossip,
// obsv and transport (serve/loadtest, a test fixture, is its own
// package).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aolog"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// Wire kinds registered by Tier.Register, beside "headbls" and
// "consistency" (the daemon adds its own write and identity kinds).
const (
	// KindProof serves a cached inclusion proof: ProofRequest ->
	// ProofResponse.
	KindProof = "proof"
	// KindSubscribe registers the connection for head pushes:
	// SubscribeRequest -> SubscribeResponse (current heads), then
	// server-initiated _batch frames of KindPushHeads sub-requests.
	KindSubscribe = "subscribe"
	// KindUnsubscribe removes the connection's subscription.
	KindUnsubscribe = "unsubscribe"
	// KindPushHeads is the server-initiated sub-request kind inside
	// pushed _batch frames; its body is a gossip.HeadsMessage.
	KindPushHeads = "push_heads"
)

// ErrOverloaded is the typed refusal: admission is saturated and no
// stale-but-verified answer exists for the request.
var ErrOverloaded = errors.New("serve: overloaded")

// IsOverloaded reports whether an error (local or remote) is the typed
// overload refusal.
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	var remote *transport.ErrRemote
	return errors.As(err, &remote) && remote.Msg == ErrOverloaded.Error()
}

// ProofRequest asks for the payload at Index plus an inclusion proof
// against the super-root at tree size Size (0 = the current head size).
type ProofRequest struct {
	Index int `json:"index"`
	Size  int `json:"size,omitempty"`
}

// ProofResponse carries the proof, and — when the proof is against the
// tier's current head — that signed head, so one round trip yields
// everything a client audit needs. Overloaded=true means admission
// refused fresh computation and the response was answered from the last
// stale-but-verified head (StaleHead): Size/Payload/Proof then verify
// against StaleHead, which still passes client-side audit.
type ProofResponse struct {
	Index      int                        `json:"index"`
	Size       int                        `json:"size"`
	Payload    []byte                     `json:"payload"`
	Proof      *aolog.ShardInclusionProof `json:"proof"`
	Head       *aolog.BLSSignedHead       `json:"head,omitempty"`
	Overloaded bool                       `json:"overloaded,omitempty"`
	StaleHead  *aolog.BLSSignedHead       `json:"stale_head,omitempty"`
}

// ConsistencyRequest mirrors the monitor's "consistency" body, plus an
// optional fixed NewSize (0 = current head size).
type ConsistencyRequest struct {
	OldSize int `json:"old_size"`
	NewSize int `json:"new_size,omitempty"`
}

// SubscribeRequest registers the requesting connection for head pushes.
type SubscribeRequest struct {
	From string `json:"from,omitempty"`
}

// SubscribeResponse acks a subscription with the current head(s), so a
// new subscriber is primed without waiting for the next append.
type SubscribeResponse struct {
	Heads []gossip.GossipHead `json:"heads,omitempty"`
}

// Backend is the log state the tier serves. *monitor.Monitor implements
// it; tests and benchmarks may substitute lighter fakes.
type Backend interface {
	// Len is the current total log size (cheap; called per append hook).
	Len() int
	// TreeHeadBLS signs the current head.
	TreeHeadBLS() (aolog.BLSSignedHead, error)
	// ProveInclusionAt returns payload+proof for index at tree size n.
	ProveInclusionAt(index, n int) ([]byte, *aolog.ShardInclusionProof, error)
	// ProveConsistencyBetween proves append-only growth old..new.
	ProveConsistencyBetween(oldSize, newSize int) (*aolog.ShardConsistencyProof, error)
}

// Options configure a tier.
type Options struct {
	// Source / SourcePK identify the backend in pushed heads (the
	// monitor's name and compressed BLS tree-head key).
	Source   string
	SourcePK []byte
	// Cosign, when set, attaches witness cosignatures to each newly
	// published head (deployments where the monitor accumulates
	// cosignatures locally; the witness tier pushes its frontier's
	// cosignatures instead).
	Cosign func(aolog.BLSSignedHead) []gossip.Cosignature
	// Metrics is the registry the tier publishes its serve_* series on
	// (nil: a private registry, reachable via Tier.Metrics). One tier
	// per registry — the serve_* names are unqualified.
	Metrics *obsv.Registry
}

// The tier's sizes. They are constants because no caller has ever needed
// a second value. The third, proof computations in flight, Attach works
// out from the machine as 2*GOMAXPROCS: a proof walk is CPU work, so
// beyond two per core more in flight only means more queueing.
const (
	// cacheEntries bounds the proof cache. An entry is one proof plus its
	// payload, a few kB, so a full cache is a few hundred MB at most.
	cacheEntries = 1 << 16
	// maxWaiters bounds callers queued behind the in-flight computations;
	// past it requests degrade or refuse. A proof walk takes microseconds,
	// so a full queue drains long before a client's call deadline.
	maxWaiters = 1024
)

// headSnap is one published head: the signature, the push form, and the
// size they commit to.
type headSnap struct {
	size int
	bls  aolog.BLSSignedHead
	gh   gossip.GossipHead
}

// Tier is the serving tier for one backend. Create with Attach, install
// RPC kinds with Register, signal appends with Kick, stop with Close.
type Tier struct {
	b    Backend
	opts Options
	reg  *obsv.Registry

	cache *proofCache
	gate  *gate
	hub   *Hub

	head  atomic.Pointer[headSnap] // current published head
	stale atomic.Pointer[headSnap] // previous published head
	fail  atomic.Pointer[error]    // poison: set once, never cleared

	// flight records operational transitions (head advances, poisoning,
	// admission refusals) when a daemon installs its recorder; nil-safe.
	// Refusals are rate-limited: under sustained overload every request
	// refuses, and the ring must not become a wall of identical events.
	flight      atomic.Pointer[obsv.FlightRecorder]
	refuseLimit *obsv.FlightLimiter

	degraded    atomic.Uint64
	headsSigned atomic.Uint64

	kick   chan struct{}
	closed chan struct{}
	wg     sync.WaitGroup
}

// Attach builds a tier over a backend and publishes its current head.
// It fails if the backend cannot sign (or durably record) that head.
func Attach(b Backend, opts Options) (*Tier, error) {
	if opts.Metrics == nil {
		opts.Metrics = obsv.NewRegistry()
	}
	t := &Tier{
		b:           b,
		opts:        opts,
		reg:         opts.Metrics,
		cache:       newProofCache(cacheEntries),
		gate:        newGate(2*runtime.GOMAXPROCS(0), maxWaiters),
		hub:         NewHub(opts.Source),
		kick:        make(chan struct{}, 1),
		closed:      make(chan struct{}),
		refuseLimit: obsv.NewFlightLimiter(100 * time.Millisecond),
	}
	t.registerMetrics()
	snap, err := t.sign()
	if err != nil {
		return nil, fmt.Errorf("serve: signing initial head: %w", err)
	}
	t.head.Store(snap)
	t.wg.Add(1)
	go t.publisher()
	return t, nil
}

// Kick signals that the backend's log may have grown (level-triggered,
// non-blocking; safe to call from a monitor append hook under its lock).
func (t *Tier) Kick() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// Close stops the publisher and drops all subscriptions.
func (t *Tier) Close() {
	select {
	case <-t.closed:
	default:
		close(t.closed)
	}
	t.wg.Wait()
	t.hub.Close()
}

// Hub exposes the tier's push hub (the daemon wires extra publishers —
// e.g. a witness republishing its cosigned frontier — through it).
func (t *Tier) Hub() *Hub { return t.hub }

// failed returns the poison error, if any.
func (t *Tier) failed() error {
	if e := t.fail.Load(); e != nil {
		return *e
	}
	return nil
}

// poison marks the tier failed-closed: every subsequent request errors.
func (t *Tier) poison(err error) {
	e := fmt.Errorf("serve: refusing to serve: %w", err)
	if t.fail.CompareAndSwap(nil, &e) {
		t.flight.Load().Record("serve", "poison", err.Error(), 0, obsv.TraceContext{})
	}
}

// SetFlightRecorder installs the daemon's flight recorder on the tier.
// Call any time after Attach; nil uninstalls. Safe under traffic.
func (t *Tier) SetFlightRecorder(fr *obsv.FlightRecorder) {
	t.flight.Store(fr)
}

// refused notes an admission refusal in the flight ring, at most once
// per 100ms so a refusal storm reads as a marker, not a flood.
func (t *Tier) refused(detail string) {
	if fr := t.flight.Load(); fr != nil && t.refuseLimit.Allow() {
		fr.Record("serve", "admission_refused", detail, 0, obsv.TraceContext{})
	}
}

// sign produces a head snapshot at the backend's current size.
func (t *Tier) sign() (*headSnap, error) {
	bls, err := t.b.TreeHeadBLS()
	if err != nil {
		return nil, err
	}
	t.headsSigned.Add(1)
	snap := &headSnap{
		size: int(bls.Size),
		bls:  bls,
		gh: gossip.GossipHead{
			Source:   t.opts.Source,
			SourcePK: t.opts.SourcePK,
			Head:     bls,
		},
	}
	if t.opts.Cosign != nil {
		snap.gh.Cosigs = t.opts.Cosign(bls)
	}
	return snap, nil
}

// publisher is the head pump: one goroutine that, per append batch (not
// per client), signs the new head, self-checks it against the previous
// one, and pushes it to every subscriber.
func (t *Tier) publisher() {
	defer t.wg.Done()
	for {
		select {
		case <-t.closed:
			return
		case <-t.kick:
		}
		t.refreshHead()
	}
}

// refreshHead advances the published head if the log grew. Before a new
// head is served or pushed, the tier PROVES to itself that it extends
// the previous published head: a backend that rolled back or forked
// (e.g. recovered from tampered storage behind the tier's back) poisons
// the tier instead of reaching clients or the cache.
func (t *Tier) refreshHead() {
	if t.failed() != nil {
		return
	}
	cur := t.head.Load()
	n := t.b.Len()
	if n == cur.size {
		return
	}
	if n < cur.size {
		t.poison(fmt.Errorf("backend log rolled back from %d to %d leaves", cur.size, n))
		return
	}
	snap, err := t.sign()
	if err != nil {
		t.poison(fmt.Errorf("signing head at size %d: %w", n, err))
		return
	}
	if snap.size < n {
		// The backend shrank between Len and signing: rollback.
		t.poison(fmt.Errorf("backend log rolled back from %d to %d leaves", n, snap.size))
		return
	}
	proof, err := t.b.ProveConsistencyBetween(cur.size, snap.size)
	if err != nil {
		t.poison(fmt.Errorf("proving consistency %d..%d: %w", cur.size, snap.size, err))
		return
	}
	if !aolog.VerifyShardConsistency(cur.bls.Head, snap.bls.Head, proof) {
		t.poison(fmt.Errorf("head at size %d contradicts published head at size %d", snap.size, cur.size))
		return
	}
	t.stale.Store(cur)
	t.head.Store(snap)
	t.flight.Load().Record("serve", "head_advance", "", uint64(snap.size), obsv.TraceContext{})
	t.hub.Publish([]gossip.GossipHead{snap.gh})
}

// cachedProof is the cache value for inclusion keys; immutable.
type cachedProof struct {
	payload []byte
	proof   *aolog.ShardInclusionProof
}

// Proof serves an inclusion proof through cache, coalescing, and
// admission. This is the direct (in-process) entry point; the RPC
// handler is a thin wrapper.
func (t *Tier) Proof(req *ProofRequest) (*ProofResponse, error) {
	if err := t.failed(); err != nil {
		return nil, err
	}
	snap := t.head.Load()
	size := req.Size
	if size == 0 {
		size = snap.size
	}
	if size > snap.size {
		// Beyond the published head: either nonsense or a race with the
		// publisher; clients retry after the next push.
		return nil, fmt.Errorf("serve: no published head at size %d (current %d)", size, snap.size)
	}
	cp, err := t.inclusion(size, req.Index)
	if errors.Is(err, ErrOverloaded) {
		t.refused("proof")
		return t.degrade(req, snap)
	}
	if err != nil {
		return nil, err
	}
	resp := &ProofResponse{Index: req.Index, Size: size, Payload: cp.payload, Proof: cp.proof}
	if size == snap.size {
		head := snap.bls
		resp.Head = &head
	}
	return resp, nil
}

// inclusion returns the cached proof for (size, index), computing it at
// most once concurrently, behind the admission gate.
func (t *Tier) inclusion(size, index int) (*cachedProof, error) {
	compute := func() (any, error) {
		release, ok := t.gate.enter()
		if !ok {
			return nil, ErrOverloaded
		}
		defer release()
		payload, proof, err := t.b.ProveInclusionAt(index, size)
		if err != nil {
			return nil, err
		}
		return &cachedProof{payload: payload, proof: proof}, nil
	}
	v, err := t.cache.do(inclusionKey(size, index), compute)
	if err != nil {
		return nil, err
	}
	return v.(*cachedProof), nil
}

// degrade answers an admission-refused proof request from the last
// stale-but-verified head, if its proof is already cached. The client
// still gets state it can fully audit — a signed head and a matching
// proof — just one head older than the hottest one.
func (t *Tier) degrade(req *ProofRequest, snap *headSnap) (*ProofResponse, error) {
	if req.Size != 0 {
		// An explicit fixed-size request pinned its tree size; answering
		// at any other size would silently change what the client audits.
		return nil, ErrOverloaded
	}
	stale := t.stale.Load()
	if stale == nil || req.Index >= stale.size {
		return nil, ErrOverloaded
	}
	v, ok := t.cache.peek(inclusionKey(stale.size, req.Index))
	if !ok {
		return nil, ErrOverloaded
	}
	cp := v.(*cachedProof)
	head := stale.bls
	t.degraded.Add(1)
	return &ProofResponse{
		Index:      req.Index,
		Size:       stale.size,
		Payload:    cp.payload,
		Proof:      cp.proof,
		Overloaded: true,
		StaleHead:  &head,
	}, nil
}

// Consistency serves a consistency proof through the same cache and
// admission path. newSize 0 means the current head size. The response
// shape is the bare proof.
func (t *Tier) Consistency(oldSize, newSize int) (*aolog.ShardConsistencyProof, error) {
	if err := t.failed(); err != nil {
		return nil, err
	}
	snap := t.head.Load()
	if newSize == 0 {
		newSize = snap.size
	}
	if newSize > snap.size {
		return nil, fmt.Errorf("serve: no published head at size %d (current %d)", newSize, snap.size)
	}
	compute := func() (any, error) {
		release, ok := t.gate.enter()
		if !ok {
			return nil, ErrOverloaded
		}
		defer release()
		return t.b.ProveConsistencyBetween(oldSize, newSize)
	}
	v, err := t.cache.do(consistencyKey(oldSize, newSize), compute)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			t.refused("consistency")
		}
		return nil, err
	}
	return v.(*aolog.ShardConsistencyProof), nil
}

// HeadBLS returns the current published BLS head — signed once per size,
// not once per caller.
func (t *Tier) HeadBLS() (aolog.BLSSignedHead, error) {
	if err := t.failed(); err != nil {
		return aolog.BLSSignedHead{}, err
	}
	return t.head.Load().bls, nil
}

// CurrentHeads is what a new subscriber is primed with.
func (t *Tier) CurrentHeads() []gossip.GossipHead {
	if t.failed() != nil {
		return nil
	}
	return []gossip.GossipHead{t.head.Load().gh}
}

// Metrics returns the registry carrying the tier's serve_* series (the
// one from Options.Metrics, or the private default).
func (t *Tier) Metrics() *obsv.Registry { return t.reg }

// Unhealthy returns the poison error once the tier has failed closed,
// nil while healthy. Daemons wire it into their readiness probes so a
// poisoned tier flips /readyz instead of hiding behind RPC errors.
func (t *Tier) Unhealthy() error { return t.failed() }

// Poison marks the tier failed-closed with an operator-supplied cause —
// the kill switch for incident response, and the fault-injection hook
// the health-surface tests flip. Irreversible, like internal poisoning.
func (t *Tier) Poison(err error) {
	if err == nil {
		err = errors.New("poisoned by operator")
	}
	t.poison(err)
}

// registerMetrics binds every tier counter to the registry. The hot
// paths keep their existing atomics and mutex-guarded counters; the
// registry reads them lazily at scrape time, so serving costs nothing
// extra per request.
func (t *Tier) registerMetrics() {
	reg := t.reg
	reg.GaugeFunc("serve_head_size", "tree size of the current published head", func() float64 {
		if snap := t.head.Load(); snap != nil {
			return float64(snap.size)
		}
		return 0
	})
	reg.GaugeFunc("serve_poisoned", "1 once the tier has failed closed and refuses to serve", func() float64 {
		if t.failed() != nil {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("serve_cache_entries", "proofs resident in the LRU cache", func() float64 {
		return float64(t.cache.stats().Entries)
	})
	reg.CounterFunc("serve_cache_hits_total", "proof requests answered from cache", func() uint64 {
		return t.cache.stats().Hits
	})
	reg.CounterFunc("serve_cache_misses_total", "proof requests that computed fresh state", func() uint64 {
		return t.cache.stats().Misses
	})
	reg.CounterFunc("serve_cache_coalesced_total", "proof requests that joined an in-flight computation", func() uint64 {
		return t.cache.stats().Coalesced
	})
	reg.CounterFunc("serve_cache_evictions_total", "cache entries evicted at capacity", func() uint64 {
		return t.cache.stats().Evictions
	})
	reg.CounterFunc("serve_admission_refused_total", "proof computations refused by the admission gate", func() uint64 {
		return t.gate.refused.Load()
	})
	reg.CounterFunc("serve_degraded_total", "refused requests answered from the stale-but-verified head", t.degraded.Load)
	reg.CounterFunc("serve_heads_signed_total", "tree heads signed (once per size, not per client)", t.headsSigned.Load)
	reg.GaugeFunc("serve_subscribers", "live push subscriptions", func() float64 {
		return float64(t.hub.Subscribers())
	})
	reg.CounterFunc("serve_heads_pushed_total", "heads enqueued for push across all subscribers", t.hub.pushedCount)
	reg.CounterFunc("serve_heads_dropped_total", "heads dropped at enqueue (regressions and overflow)", t.hub.droppedCount)
	reg.GaugeFunc("serve_push_pending", "heads currently queued for push across all subscribers", func() float64 {
		return float64(t.hub.pendingTotal())
	})
}

// Register installs the tier's RPC kinds on a transport server:
// "headbls", "consistency", "proof", "subscribe" and "unsubscribe". They
// are the daemon's whole read path; nothing else answers these kinds.
func (t *Tier) Register(srv *transport.Server) {
	srv.Handle("headbls", func(json.RawMessage) (any, error) {
		return t.HeadBLS()
	})
	srv.Handle("consistency", func(body json.RawMessage) (any, error) {
		var req ConsistencyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return t.Consistency(req.OldSize, req.NewSize)
	})
	srv.Handle(KindProof, func(body json.RawMessage) (any, error) {
		var req ProofRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return t.Proof(&req)
	})
	RegisterHub(srv, t.hub, t.CurrentHeads)
}

// RegisterHub installs subscribe/unsubscribe kinds for a hub. current,
// when non-nil, primes each new subscriber's ack with the present heads;
// it runs under the subscriber's write lock and must not call into the
// hub.
// Exposed separately so daemons that are not a single-log Tier (the
// witness) can serve the same subscription protocol.
func RegisterHub(srv *transport.Server, hub *Hub, current func() []gossip.GossipHead) {
	srv.HandlePush(KindSubscribe, func(body json.RawMessage, p *transport.Pusher) (any, error) {
		if p == nil {
			return nil, errors.New("serve: subscribe requires a connection")
		}
		var req SubscribeRequest
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, err
			}
		}
		heads, err := hub.subscribe(p, current)
		if err != nil {
			return nil, err
		}
		return SubscribeResponse{Heads: heads}, nil
	})
	srv.HandlePush(KindUnsubscribe, func(_ json.RawMessage, p *transport.Pusher) (any, error) {
		if p == nil {
			return nil, errors.New("serve: unsubscribe requires a connection")
		}
		hub.Unsubscribe(p)
		return struct{}{}, nil
	})
}
