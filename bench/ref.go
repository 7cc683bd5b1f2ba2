package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/big"
	"sort"
	"sync"
	"time"
)

// The speed reference: a fixed piece of work — standard library only, so
// no change to the repository can move it — timed every refPeriod on the
// CPU the benchmark is pinned to, for as long as the process runs. The
// sandbox runs everything at one of several speeds, up to 1.6x apart, for
// seconds or minutes at a stretch; the end-to-end figures are reported in
// reference time, measured time over how much longer than refNominal the
// fixed work took while they were measured, so that one commit reads the
// same in a slow stretch as in a fast one. Ten milliseconds of workload
// between two bursts leave a burst nothing in the caches, and that is
// wanted: a slow stretch costs memory access and the kernel more than
// arithmetic, and a burst timed right after a warming one followed the
// workloads only half as well.
const (
	refPeriod = 10 * time.Millisecond
	refMuls   = 64
	// refNominal is what one burst takes on the box the committed
	// calibration was made on, in its quiet state.
	refNominal = 48 * time.Microsecond
)

// refMsg is shaped like a proof reply: a payload and a Merkle path.
type refMsg struct {
	ID      uint64   `json:"id"`
	OK      bool     `json:"ok"`
	Index   int      `json:"index"`
	Size    int      `json:"size"`
	Payload []byte   `json:"payload"`
	Path    [][]byte `json:"path"`
}

type refSample struct {
	at time.Time
	d  time.Duration
}

type reference struct {
	msg     refMsg
	a, m, x *big.Int

	mu      sync.Mutex
	samples []refSample
}

func newReference() *reference {
	r := &reference{}
	r.msg = refMsg{ID: 1, OK: true, Index: 12345, Size: 67890, Payload: make([]byte, 600)}
	for i := range r.msg.Payload {
		r.msg.Payload[i] = byte(i * 7)
	}
	h := sha256.Sum256(r.msg.Payload)
	for i := 0; i < 13; i++ {
		h = sha256.Sum256(h[:])
		r.msg.Path = append(r.msg.Path, append([]byte(nil), h[:]...))
	}
	// The BLS12-381 base field modulus and generator x-coordinate: numbers
	// of the size the pairing code multiplies.
	r.m, _ = new(big.Int).SetString("1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab", 16)
	r.a, _ = new(big.Int).SetString("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb", 16)
	r.x = new(big.Int).Set(r.a)
	return r
}

// burst is one unit of the fixed work: a JSON round trip of the message
// and refMuls 381-bit modular multiplications.
func (r *reference) burst() {
	b, _ := json.Marshal(&r.msg)
	var out refMsg
	json.Unmarshal(b, &out)
	r.msg.ID = out.ID + 1
	for i := 0; i < refMuls; i++ {
		r.x.Mul(r.x, r.a)
		r.x.Mod(r.x, r.m)
	}
}

// run times one burst every refPeriod for the life of the process.
func (r *reference) run() {
	for range time.Tick(refPeriod) {
		t0 := time.Now()
		r.burst()
		d := time.Since(t0)
		r.mu.Lock()
		r.samples = append(r.samples, refSample{at: t0, d: d})
		r.mu.Unlock()
	}
}

// slowdown is how much longer than refNominal the fixed work took in
// [t0, t1): the first decile of the burst times there (a burst that was
// pre-empted reads long, never short) over refNominal. It is 1 where
// nothing was sampled.
func (r *reference) slowdown(t0, t1 time.Time) float64 {
	r.mu.Lock()
	var d []time.Duration
	for _, s := range r.samples {
		if !s.at.Before(t0) && s.at.Before(t1) {
			d = append(d, s.d)
		}
	}
	r.mu.Unlock()
	if len(d) == 0 {
		return 1
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[len(d)/10]) / float64(refNominal)
}

// ref is the process's one reference; startRef begins sampling, once.
var (
	ref      = newReference()
	refStart sync.Once
)

func startRef() { refStart.Do(func() { go ref.run() }) }
