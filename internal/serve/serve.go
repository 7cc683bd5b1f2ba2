// Package serve is the million-client serving tier for monitors and
// witnesses: the layer that makes the transparency read path scale by
// amortizing shared work across clients instead of paying it per request
// (the HotNets "hypergrowth upgrade" move).
//
// Three mechanisms, composed:
//
//   - Proofs held by the published heads, with single-flight coalescing
//     (cache.go). A proof at a fixed size is an immutable fact about an
//     append-only log, so each published head snapshot keeps the
//     inclusion proofs at its size and the consistency proofs ending at
//     it: a hot proof is computed once per head, not once per client, and
//     concurrent requests for it coalesce into one computation. The
//     proofs retire with their head; a proof pinned to any other size (a
//     client catching up from its own last head) is computed for its
//     caller alone. Tree heads are signed once per SIZE, inside the
//     backend's commit, not once per "headbls" call.
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
// OWNS: the proofs each published head holds and their single flights;
// the head pump, its self-check and the poison state; admission and
// degradation; the Hub's per-subscriber coalescing; the
// subscribe/unsubscribe/push_heads kinds and, on the client side
// (Subscriber), the VerifyHead hook, the per-source monotonicity guard
// and when to subscribe again.
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
// against StaleHead, which still passes client-side audit. From the
// in-process entry point (Tier.Proof) Payload and Proof are shared with
// the cache and the log: read them, never write them.
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
	// TreeHeadBLS returns the signed head at the current size. A
	// monitor signs it inside the commit that reached the size, so the
	// tier's pump reads it rather than paying for a signature.
	TreeHeadBLS() (aolog.BLSSignedHead, error)
	// ProveInclusionAt returns payload+proof for index at tree size n.
	// The payload may be the log's own stored bytes: the tier and its
	// replies only read it.
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
	// snapProofs bounds the proofs one published head holds, computed or
	// in flight; past it a miss is computed for its caller alone. An
	// entry is one proof plus its payload, a few kB, so the two heads
	// full are a few hundred MB at most.
	snapProofs = 1 << 15
	// maxWaiters bounds callers queued behind the in-flight computations;
	// past it requests degrade or refuse. A proof walk takes microseconds,
	// so a full queue drains long before a client's call deadline.
	maxWaiters = 1024
)

// headSnap is one published head: the signature, the push form, the
// size they commit to, and the proofs pinned to that size (cache.go).
type headSnap struct {
	size int
	bls  aolog.BLSSignedHead
	gh   gossip.GossipHead

	mu     sync.Mutex
	proofs map[proofKey]pinned // nil once retired
}

// Tier is the serving tier for one backend. Create with Attach, install
// RPC kinds with Register, signal appends with Kick, stop with Close.
type Tier struct {
	b    Backend
	opts Options
	reg  *obsv.Registry

	gate *gate
	hub  *Hub

	head  atomic.Pointer[headSnap] // current published head
	stale atomic.Pointer[headSnap] // previous published head
	fail  atomic.Pointer[error]    // poison: set once, never cleared

	// flight records operational transitions (head advances, poisoning,
	// admission refusals) when a daemon installs its recorder; nil-safe.
	// Refusals are rate-limited: under sustained overload every request
	// refuses, and the ring must not become a wall of identical events.
	flight      atomic.Pointer[obsv.FlightRecorder]
	refuseLimit *obsv.FlightLimiter

	// Proof requests answered from a snapshot, computed, or joined to a
	// computation in flight; and proofs dropped with their retired head.
	hits, misses, coalesced, evictions atomic.Uint64

	degraded       atomic.Uint64
	headsPublished atomic.Uint64

	kick   chan struct{}
	closed chan struct{}
	wg     sync.WaitGroup
}

// Attach builds a tier over a backend and publishes its current head.
// It fails if the backend cannot produce (or durably record) that head.
func Attach(b Backend, opts Options) (*Tier, error) {
	if opts.Metrics == nil {
		opts.Metrics = obsv.NewRegistry()
	}
	t := &Tier{
		b:           b,
		opts:        opts,
		reg:         opts.Metrics,
		gate:        newGate(2*runtime.GOMAXPROCS(0), maxWaiters),
		hub:         NewHub(opts.Source),
		kick:        make(chan struct{}, 1),
		closed:      make(chan struct{}),
		refuseLimit: obsv.NewFlightLimiter(100 * time.Millisecond),
	}
	t.registerMetrics()
	snap, err := t.snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: reading initial head: %w", err)
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

// snapshot reads the backend's signed head at its current size into a
// head snapshot. The backend signed that head inside the commit that
// reached the size, so publishing it signs and syncs nothing.
func (t *Tier) snapshot() (*headSnap, error) {
	bls, err := t.b.TreeHeadBLS()
	if err != nil {
		return nil, err
	}
	t.headsPublished.Add(1)
	snap := &headSnap{
		size: int(bls.Size),
		bls:  bls,
		gh: gossip.GossipHead{
			Source:   t.opts.Source,
			SourcePK: t.opts.SourcePK,
			Head:     bls,
		},
		proofs: make(map[proofKey]pinned),
	}
	if t.opts.Cosign != nil {
		snap.gh.Cosigs = t.opts.Cosign(bls)
	}
	return snap, nil
}

// publisher is the head pump: one goroutine that, per append batch (not
// per client), reads the new committed head, self-checks it against the
// previous one, and pushes it to every subscriber.
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
// the tier instead of reaching clients. The head the new one pushes out
// of the stale slot retires, and its proofs with it.
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
	snap, err := t.snapshot()
	if err != nil {
		t.poison(fmt.Errorf("reading head at size %d: %w", n, err))
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
	if old := t.stale.Swap(cur); old != nil {
		t.evictions.Add(uint64(old.retire()))
	}
	t.head.Store(snap)
	t.flight.Load().Record("serve", "head_advance", "", uint64(snap.size), obsv.TraceContext{})
	t.hub.Publish([]gossip.GossipHead{snap.gh})
}

// cachedProof is the value of an inclusion key; immutable. payload
// is the log's own stored bytes (Backend.ProveInclusionAt), shared by
// every reply that carries it and never written.
type cachedProof struct {
	payload []byte
	proof   *aolog.ShardInclusionProof
}

// Proof serves an inclusion proof through the published heads' proofs,
// coalescing, and admission. This is the direct (in-process) entry
// point; the RPC handler is a thin wrapper.
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
	cp, err := t.inclusion(snap, size, req.Index)
	if errors.Is(err, ErrOverloaded) {
		t.refused("proof")
		return t.degrade(req)
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

// inclusion returns the proof of index at size, pinned to the published
// snapshot of that size if there is one, computed behind the admission
// gate on a miss.
func (t *Tier) inclusion(head *headSnap, size, index int) (*cachedProof, error) {
	v, err := t.pinnedProof(t.snapAt(head, size), proofKey{'i', index}, func() (any, error) {
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
	})
	if err != nil {
		return nil, err
	}
	return v.(*cachedProof), nil
}

// degrade answers an admission-refused proof request from the last
// stale-but-verified head, if that head already holds its proof. The
// client still gets state it can fully audit — a signed head and a
// matching proof — just one head older than the hottest one.
func (t *Tier) degrade(req *ProofRequest) (*ProofResponse, error) {
	if req.Size != 0 {
		// An explicit fixed-size request pinned its tree size; answering
		// at any other size would silently change what the client audits.
		return nil, ErrOverloaded
	}
	stale := t.stale.Load()
	if stale == nil {
		return nil, ErrOverloaded
	}
	v, ok := stale.lookup(proofKey{'i', req.Index})
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

// Consistency serves a consistency proof through the same pinned proofs
// and admission path: one ending at the head or the stale head is held by
// that snapshot. newSize 0 means the current head size. The response
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
	v, err := t.pinnedProof(t.snapAt(snap, newSize), proofKey{'c', oldSize}, func() (any, error) {
		release, ok := t.gate.enter()
		if !ok {
			return nil, ErrOverloaded
		}
		defer release()
		return t.b.ProveConsistencyBetween(oldSize, newSize)
	})
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
	reg.Register("serve_head_size", "tree size of the current published head", obsv.GaugeFunc(func() float64 {
		if snap := t.head.Load(); snap != nil {
			return float64(snap.size)
		}
		return 0
	}))
	reg.Register("serve_poisoned", "1 once the tier has failed closed and refuses to serve", obsv.GaugeFunc(func() float64 {
		if t.failed() != nil {
			return 1
		}
		return 0
	}))
	reg.Register("serve_cache_entries", "proofs held by the head and the stale head", obsv.GaugeFunc(func() float64 {
		return float64(t.head.Load().held() + t.stale.Load().held())
	}))
	reg.Register("serve_cache_hits_total", "proof requests answered from cache", obsv.CounterFunc(t.hits.Load))
	reg.Register("serve_cache_misses_total", "proof requests that computed fresh state", obsv.CounterFunc(t.misses.Load))
	reg.Register("serve_cache_coalesced_total", "proof requests that joined an in-flight computation", obsv.CounterFunc(t.coalesced.Load))
	reg.Register("serve_cache_evictions_total", "proofs dropped when their head retired", obsv.CounterFunc(t.evictions.Load))
	reg.Register("serve_admission_refused_total", "proof computations refused by the admission gate", obsv.CounterFunc(func() uint64 {
		return t.gate.refused.Load()
	}))
	reg.Register("serve_degraded_total", "refused requests answered from the stale-but-verified head", obsv.CounterFunc(t.degraded.Load))
	reg.Register("serve_heads_signed_total", "tree heads read from the backend and published, once per size, not per client (the backend signs each inside its commit)", obsv.CounterFunc(t.headsPublished.Load))
	reg.Register("serve_subscribers", "live push subscriptions", obsv.GaugeFunc(func() float64 {
		return float64(t.hub.Subscribers())
	}))
	reg.Register("serve_heads_pushed_total", "heads enqueued for push across all subscribers", obsv.CounterFunc(t.hub.pushed.Load))
	reg.Register("serve_heads_dropped_total", "heads dropped at enqueue (regressions and overflow)", obsv.CounterFunc(t.hub.dropped.Load))
	reg.Register("serve_push_pending", "heads currently queued for push across all subscribers", obsv.GaugeFunc(func() float64 {
		return float64(t.hub.Pending())
	}))
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
		if err := transport.DecodeBody(body, &req); err != nil {
			return nil, err
		}
		return t.Consistency(req.OldSize, req.NewSize)
	})
	srv.Handle(KindProof, func(body json.RawMessage) (any, error) {
		var req ProofRequest
		if err := transport.DecodeBody(body, &req); err != nil {
			return nil, err
		}
		return t.Proof(&req)
	})
	RegisterHub(srv, t.hub, t.CurrentHeads)
}

// RegisterHub installs subscribe/unsubscribe kinds for a hub. current
// primes each new subscriber's ack with the present heads; it runs under
// the subscriber's write lock and must not call into the hub.
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
