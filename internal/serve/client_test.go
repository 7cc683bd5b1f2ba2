package serve

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/transport"
)

// trackingDialer dials through a MemListener and remembers the most
// recent connection so the test can kill it to force a reconnect.
type trackingDialer struct {
	ln *transport.MemListener

	mu    sync.Mutex
	cur   net.Conn
	dials int
}

func (d *trackingDialer) dial() (net.Conn, error) {
	c, err := d.ln.Dial()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.cur = c
	d.dials++
	d.mu.Unlock()
	return c, nil
}

func (d *trackingDialer) killCurrent() {
	d.mu.Lock()
	c := d.cur
	d.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// TestAutoSubscriberReconnectMonotonic is the reconnect safety test:
// across repeated forced reconnects of a Redial subscriber, the
// delivered head sizes for the source form one strictly increasing
// sequence — the subscription-ack re-priming after each reconnect never
// re-delivers the head the previous connection already delivered (no
// duplicates), and no delivered head ever regresses (per-source
// monotonicity).
func TestAutoSubscriberReconnectMonotonic(t *testing.T) {
	f := newFixture(t)
	f.append(t, 2)
	tier := f.attach(t, Options{})

	srv := transport.NewServer()
	tier.Register(srv)
	ln := transport.NewMemListener()
	defer ln.Close()
	go srv.Serve(ln)

	var (
		mu        sync.Mutex
		delivered []uint64
	)
	newHead := make(chan uint64, 64)
	dialer := &trackingDialer{ln: ln}
	sub := Redial(dialer.dial, 5*time.Second)
	sub.OnHeads = func(_ string, heads []gossip.GossipHead) {
		mu.Lock()
		for i := range heads {
			delivered = append(delivered, heads[i].Head.Size)
		}
		mu.Unlock()
		for i := range heads {
			newHead <- heads[i].Head.Size
		}
	}
	var connects atomic.Uint64
	sub.OnState = func(event string, _ error) {
		if event == "connected" {
			connects.Add(1)
		}
	}
	if err := sub.Subscribe("reconnect-test"); err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	waitSize := func(want uint64) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case got := <-newHead:
				if got >= want {
					if got != want {
						t.Fatalf("delivered size %d, want %d", got, want)
					}
					return
				}
			case <-deadline:
				t.Fatalf("no head of size %d delivered", want)
			}
		}
	}

	// Initial subscription primes the current head (size 2).
	waitSize(2)

	size := uint64(2)
	const cycles = 3
	for cycle := 0; cycle < cycles; cycle++ {
		// Grow the log on a live connection; the push must arrive.
		f.append(t, 1)
		size++
		waitSize(size)

		// Kill the connection. The subscriber must redial,
		// re-subscribe, and suppress the ack's replay of the current
		// head (it was already delivered above).
		dialer.killCurrent()
		waitConnects(t, &connects, uint64(cycle+2))

		// Liveness after heal: the resumed subscription still receives
		// new pushes.
		f.append(t, 1)
		size++
		waitSize(size)
	}

	mu.Lock()
	got := append([]uint64(nil), delivered...)
	mu.Unlock()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("delivered sizes %v: position %d (%d) does not exceed its predecessor (%d) — duplicate or regressed head across reconnect", got, i, got[i], got[i-1])
		}
	}
	if len(got) != int(size)-1 {
		t.Fatalf("delivered %d heads (%v), want %d (sizes 2..%d)", len(got), got, size-1, size)
	}

	dialer.mu.Lock()
	dials := dialer.dials
	dialer.mu.Unlock()
	if dials != cycles+1 {
		t.Fatalf("dials = %d, want %d", dials, cycles+1)
	}

	// Every reconnect's ack replayed a head already delivered, and each
	// was suppressed by the guard the subscriber carried across.
	if st := sub.Stats(); st.Duplicate != cycles || st.OutOfOrder != 0 {
		t.Fatalf("stats = %+v, want Duplicate=%d OutOfOrder=0", st, cycles)
	}
	if heads := sub.Heads(); len(heads) != 1 || heads[0].Head.Size != size {
		t.Fatalf("Heads = %+v, want the one source at size %d", heads, size)
	}
}

func waitConnects(t *testing.T, connects *atomic.Uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for connects.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("connections stuck at %d, want %d", connects.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoSubscriberCallWhileDisconnected: a Redial subscriber comes up
// in the background, so Subscribe returns although the endpoint is
// down; calls fail fast (no hang) between connections, and Close is
// clean while disconnected.
func TestAutoSubscriberCallWhileDisconnected(t *testing.T) {
	sub := Redial(func() (net.Conn, error) { return nil, errors.New("endpoint down") }, 5*time.Second)
	retried := make(chan struct{}, 1)
	sub.OnState = func(event string, _ error) {
		if event == "retry" {
			select {
			case retried <- struct{}{}:
			default:
			}
		}
	}
	if err := sub.Subscribe("t"); err != nil {
		t.Fatalf("Subscribe with the endpoint down: %v", err)
	}
	select {
	case <-retried:
	case <-time.After(10 * time.Second):
		t.Fatal("the background loop never tried to dial")
	}
	if err := sub.Call("head", struct{}{}, nil); err == nil {
		t.Fatal("Call while disconnected returned nil")
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Call("head", struct{}{}, nil); err == nil {
		t.Fatal("Call after Close returned nil")
	}
}

// TestSubscriberResumeFloorPrimesGuard: what was delivered before a
// reconnect is the floor the next connection resumes above. The
// subscribe ack on the new connection replays the current head, which
// is at that floor, and is suppressed as a duplicate, not delivered as
// progress; the first head above it is delivered.
func TestSubscriberResumeFloorPrimesGuard(t *testing.T) {
	f := newFixture(t)
	f.append(t, 3)
	tier := f.attach(t, Options{})
	srv := transport.NewServer()
	tier.Register(srv)
	ln := transport.NewMemListener()
	defer ln.Close()
	go srv.Serve(ln)

	dialer := &trackingDialer{ln: ln}
	s := Redial(dialer.dial, 5*time.Second)
	events := make(chan string, 16)
	s.OnState = func(event string, _ error) { events <- event }
	d := recordDeliveries(s)
	if err := s.Subscribe("floor-test"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitEvent := func(want string) {
		t.Helper()
		for {
			select {
			case got := <-events:
				if got == want {
					return
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("no %q event", want)
			}
		}
	}
	waitEvent("connected") // the ack primed size 3
	dialer.killCurrent()
	waitEvent("connected") // the second ack replayed size 3

	checkMonotone(t, s, d) // Heads and Stats.Received agree with what was delivered
	d.mu.Lock()
	defer d.mu.Unlock()
	var got []uint64
	for _, sizes := range d.sizes {
		got = append(got, sizes...)
	}
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("delivered sizes %v, want [3]: the replayed ack leaked through the guard", got)
	}
	if st := s.Stats(); st.Duplicate != 1 {
		t.Fatalf("stats = %+v, want Duplicate=1", st)
	}
}
