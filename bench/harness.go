package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/transport"
)

// config is how one workload run is shaped. The flags set seed, window
// and traced; the rest differ only between the real run and the smoke
// test.
type config struct {
	seed   uint64
	leaves int           // leaves seeded into a monitor fixture
	setups int           // fixture set-ups before the window
	floor  time.Duration // set-ups go on after the window until they total this
	warmup time.Duration // discarded lead-in before the measured window
	window time.Duration // untraced measured window
	traced time.Duration // traced window on the same daemons; 0 skips it
}

// A sub-second set-up (a deployment comes up in a tenth of a second) is
// repeated after the window until the set-ups total setupFloor, at most
// maxSetups times.
const (
	setupFloor = 2 * time.Second
	maxSetups  = 15
)

// Operation classes: a workload's primary operation carries p50_ms, its
// secondary one (push delivery, threshold sign) its own median; classNone
// marks trace-only work that is not an operation.
const (
	classPrimary = iota
	classSecondary
	numClasses
	classNone = -1
)

// errVerify marks a reply that arrived but failed client-side
// verification; it fails the command, not just the operation.
var errVerify = errors.New("verification failed")

// outcome is what one operation reports to the loop driving it. An
// operation that prepares its input inside the call (minting an envelope)
// times the request itself and reports lat; otherwise the loop's own
// timing of the whole call stands.
type outcome struct {
	class int
	lat   time.Duration
	err   error
}

// phase is everything one window observed.
type phase struct {
	start     time.Time // when the window began; sample offsets count from here
	window    time.Duration
	open      bool // open loop: samples are booked at their due time
	samples   [numClasses][]sample
	failed    int
	badVerify int
	errs      []string // first few distinct failures, for the report
	sp        *spans
	lateMax   time.Duration   // open loop: worst generator lateness
	aux       []time.Duration // append_to_audit: submit sent -> pushed head verified

	cpuSlices []time.Duration // daemon CPU consumed in each slice
	clientCPU time.Duration
	pairings  float64 // client-side pairing checks
	dl        delta   // server metrics; traced windows only
}

func (p *phase) ops() int { return len(p.samples[classPrimary]) + len(p.samples[classSecondary]) }

func (p *phase) attempted() int { return p.ops() + p.failed }

func (p *phase) fail(err error) {
	p.failed++
	if errors.Is(err, errVerify) {
		p.badVerify++
	}
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) merge(o *phase) {
	for c := range p.samples {
		p.samples[c] = append(p.samples[c], o.samples[c]...)
	}
	p.aux = append(p.aux, o.aux...)
	p.failed += o.failed
	p.badVerify += o.badVerify
	p.errs = append(p.errs, o.errs...)
	if len(p.errs) > 5 {
		p.errs = p.errs[:5]
	}
	if o.sp != nil {
		p.sp.merge(o.sp)
	}
}

// all returns the samples of every class together (for throughput).
func (p *phase) all() []sample {
	out := append([]sample(nil), p.samples[classPrimary]...)
	return append(out, p.samples[classSecondary]...)
}

// slowdowns is the speed reference's slowdown in each slice of the window.
func (p *phase) slowdowns() []float64 {
	out := make([]float64, numSlices)
	width := p.window / numSlices
	for i := range out {
		t0 := p.start.Add(time.Duration(i) * width)
		out[i] = ref.slowdown(t0, t0.Add(width))
	}
	return out
}

// steady turns one figure per slice into the figure reported. Each
// slice's value is first put in reference time — a cost divided, a rate
// multiplied, by how much slower than refNominal the machine ran the fixed
// work during that slice — and the quiet decile of those is taken. Slices
// that completed nothing (value 0) are left out.
func (p *phase) steady(perSlice []float64, cost bool) float64 {
	var out []float64
	for i, f := range p.slowdowns() {
		switch v := perSlice[i]; {
		case v == 0:
		case cost:
			out = append(out, v/f)
		default:
			out = append(out, v*f)
		}
	}
	return quiet(out, cost)
}

// rate is verified operations per second. An open loop completes what
// its schedule offers, so its slices all hold the same count; its rate is
// the completions over the time the last of them took to complete.
func (p *phase) rate() float64 {
	if !p.open {
		return p.steady(sliceRates(p.all(), p.window), false)
	}
	var last time.Duration
	for _, s := range p.all() {
		last = max(last, s.at+s.lat)
	}
	return ratio(float64(p.ops()), last.Seconds())
}

// p50 is the median latency of one class, from the slices' medians.
func (p *phase) p50(class int) time.Duration {
	return time.Duration(p.steady(sliceMedians(p.samples[class], p.window), true))
}

// meanLat is the mean latency of one class.
func (p *phase) meanLat(class int) time.Duration {
	s := p.samples[class]
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range s {
		sum += x.lat
	}
	return sum / time.Duration(len(s))
}

// closedLoop runs each worker in its own goroutine for d: a worker sends
// its next operation only after the previous one completed. Operations
// still in flight when the window closes are not counted.
func closedLoop(workers []func(*spans) outcome, d time.Duration, traced bool) *phase {
	start := time.Now()
	total := &phase{start: start, window: d}
	if traced {
		total.sp = newSpans()
	}
	end := start.Add(d)
	parts := make([]*phase, len(workers))
	var wg sync.WaitGroup
	for i, work := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &phase{}
			if traced {
				p.sp = newSpans()
			}
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				o := work(p.sp)
				done := time.Now()
				if done.After(end) {
					break
				}
				switch {
				case o.err != nil:
					p.fail(o.err)
				case o.class != classNone:
					if o.lat == 0 {
						o.lat = done.Sub(t0)
					}
					p.samples[o.class] = append(p.samples[o.class], sample{at: done.Sub(start), lat: o.lat})
				}
			}
			parts[i] = p
		}()
	}
	wg.Wait()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// conn is one generator connection to a daemon: a transport.Client with
// the per-operation deadline that redials after a transport failure (a
// timed-out call leaves the old connection mid-frame).
type conn struct {
	addr string
	mu   sync.Mutex
	c    *transport.Client
}

func (k *conn) do(f func(*transport.Client) error) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.c == nil {
		c, err := dial(k.addr)
		if err != nil {
			return err
		}
		k.c = c
	}
	err := f(k.c)
	var remote *transport.ErrRemote
	if err != nil && !errors.As(err, &remote) {
		k.c.Close()
		k.c = nil
	}
	return err
}

func (k *conn) call(kind string, in, out any) error {
	return k.do(func(c *transport.Client) error { return c.Call(kind, in, out) })
}

func (k *conn) callBatch(calls []transport.BatchCall) (res []transport.BatchResult, err error) {
	err = k.do(func(c *transport.Client) error {
		res, err = c.CallBatch(calls)
		return err
	})
	return res, err
}

func (k *conn) close() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// driver is one workload: how its fixture is set up, how one window of
// its traffic runs, and how its traced window maps onto the layers.
type driver interface {
	// setup boots a fresh fixture, replacing any current one, and returns
	// how long it took from the first daemon spawn to fixture ready.
	setup() (time.Duration, error)
	// window runs the workload's traffic for d on the current fixture.
	window(d time.Duration, traced bool) *phase
	// layers fills the workload's per-layer metrics and its latency budget
	// from the traced window.
	layers(tr *phase, L map[string]float64) budget
	// epilogue runs checks that need the window over (crash recovery).
	epilogue(L map[string]float64) error
	// pid is the daemon under test; metrics is its /metrics.json address;
	// conns is how many closed-loop connections each repeat the primary
	// operation (0 where the stage model does not apply: an open loop, or
	// a loop mixing operations).
	pid() int
	metrics() string
	conns() int
	close()
}

// measure runs one window bracketed by the outside-in readings: daemon
// CPU at every slice boundary, generator CPU, client-side pairing checks
// and, when traced, the daemon's own /metrics.json series.
func measure(w driver, d time.Duration, traced bool) (*phase, error) {
	var before snapshot
	var err error
	if traced {
		if before, err = scrape(w.metrics()); err != nil {
			return nil, err
		}
	}
	self0, pair0 := selfCPU(), pairingChecks()
	pid, start := w.pid(), time.Now()
	cpuAt := make([]time.Duration, numSlices+1)
	var cpuErr error
	read := func(i int) {
		cpu, err := procCPU(pid)
		if err != nil {
			cpuErr = fmt.Errorf("reading daemon CPU: %w", err)
		}
		cpuAt[i] = cpu
	}
	read(0)
	var p *phase
	done := make(chan struct{})
	go func() {
		defer close(done)
		p = w.window(d, traced)
	}()
	for i := 1; i < numSlices; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / numSlices)))
		read(i)
	}
	<-done
	read(numSlices)
	if cpuErr != nil {
		return nil, cpuErr
	}
	for i := 0; i < numSlices; i++ {
		p.cpuSlices = append(p.cpuSlices, cpuAt[i+1]-cpuAt[i])
	}
	p.clientCPU, p.pairings = selfCPU()-self0, pairingChecks()-pair0
	if traced {
		after, err := scrape(w.metrics())
		if err != nil {
			return nil, err
		}
		p.dl = delta{before: before, after: after}
	}
	return p, nil
}

// cpuPerOp is the daemon's CPU time per completed operation, from each
// slice's CPU over its completions.
func (p *phase) cpuPerOp() time.Duration {
	per := make([]float64, numSlices)
	for i, n := range sliceRates(p.all(), p.window) {
		if n > 0 {
			per[i] = float64(p.cpuSlices[i]) / (n * (p.window / numSlices).Seconds())
		}
	}
	return time.Duration(p.steady(per, true))
}

// result is one workload's report.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Budget    *budget            `json:"budget,omitempty"`

	badVerify bool // some reply failed client-side verification
}

// runWorkload runs one workload start to finish: set-ups, warm-up, the
// untraced window that yields the end-to-end metrics, the traced window
// that yields the per-layer ones, and the epilogue.
func runWorkload(e *env, name string, cfg config) (*result, error) {
	w, err := newDriver(e, name, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	startRef()
	// A new process touching new memory runs at one of two speeds in this
	// sandbox, a third apart and seconds at a stretch, so set-ups are timed
	// on both sides of the window and setup_s is their quiet decile, as the
	// other figures are the quiet decile of their slices.
	var setups []float64
	var total time.Duration
	setUp := func() error {
		d, err := w.setup()
		if err != nil {
			// Once more on a fresh fixture: a daemon that does not come up is
			// not what this run measures, and the second failure ends it.
			fmt.Fprintf(os.Stderr, "bench: %s: set-up %d failed, trying once more: %v\n", name, len(setups)+1, err)
			if d, err = w.setup(); err != nil {
				return fmt.Errorf("set-up %d: %w", len(setups)+1, err)
			}
		}
		// In reference time, like the sliced figures.
		end := time.Now()
		setups = append(setups, d.Seconds()/ref.slowdown(end.Add(-d), end))
		total += d
		return nil
	}
	for i := 0; i < cfg.setups; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	w.window(cfg.warmup, false)

	res := &result{Workload: name, Seed: cfg.seed}
	un, err := measure(w, cfg.window, false)
	if err != nil {
		return nil, err
	}
	res.count(un)
	if un.ops() == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window: %v", un.errs)
	}
	res.EndToEnd = map[string]float64{
		"ops_per_s":            un.rate(),
		"p50_ms":               ms(un.p50(classPrimary)),
		"server_cpu_us_per_op": us(un.cpuPerOp()),
	}
	L := map[string]float64{}
	if cfg.traced > 0 {
		for _, m := range perLayer {
			L[m.Name] = 0
		}
		clientLayers(un, L)
		tr, err := measure(w, cfg.traced, true)
		if err != nil {
			return nil, err
		}
		res.count(tr)
		if tr.ops() == 0 {
			return nil, fmt.Errorf("no operation completed in the traced window: %v", tr.errs)
		}
		if err := probes(L); err != nil {
			return nil, err
		}
		commonLayers(un, tr, w, L)
		b := w.layers(tr, L)
		budgetLayers(b, w.conns(), tr, L)
		res.Budget = &b
		res.Layers = L
	}
	if err := w.epilogue(L); err != nil {
		return nil, err
	}
	for total < cfg.floor && len(setups) < maxSetups {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	res.EndToEnd["setup_s"] = quiet(setups, true)
	res.FailRatio = ratio(float64(res.Failed), float64(res.Attempted))
	res.Correct = !res.badVerify
	return res, nil
}

func (r *result) count(p *phase) {
	r.Attempted += p.attempted()
	r.Failed += p.failed
	r.Errors = append(r.Errors, p.errs...)
	if p.badVerify > 0 {
		r.badVerify = true
	}
}
