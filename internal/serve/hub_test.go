package serve

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/gossip"
	"repro/internal/transport"
)

// gatedListener hands out server-side connections whose writes can be
// held: once armed, the next Write announces itself on entered and
// blocks until release is closed. It holds a push mid-write.
type gatedListener struct {
	*transport.MemListener

	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.MemListener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, l: l}, nil
}

// arm makes the next server write block; it returns the channel that
// closes once that write has started.
func (l *gatedListener) arm() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed = true
	l.entered = make(chan struct{})
	l.release = make(chan struct{})
	return l.entered
}

// writing reports whether a write is being held right now.
func (l *gatedListener) writing() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entered == nil {
		return false
	}
	select {
	case <-l.entered:
	default:
		return false
	}
	select {
	case <-l.release:
		return false
	default:
		return true
	}
}

func (l *gatedListener) open() {
	l.mu.Lock()
	defer l.mu.Unlock()
	close(l.release)
}

type gatedConn struct {
	net.Conn
	l *gatedListener
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.l.mu.Lock()
	hold := c.l.armed
	c.l.armed = false
	entered, release := c.l.entered, c.l.release
	c.l.mu.Unlock()
	if hold {
		close(entered)
		<-release
	}
	return c.Conn.Write(b)
}

func hubHead(size uint64) gossip.GossipHead {
	return gossip.GossipHead{Source: "src", Head: aolog.BLSSignedHead{Size: size}}
}

// TestSubscribeAckWaitsForPushInFlight pins the hub's ordering between a
// subscribe ack and the pushes on the same connection. A push of the
// head at size 2 is held mid-write while the subscriber subscribes again
// and the current head has moved to 3: the ack's heads must not be read
// until that push is written (so it cannot land behind the ack), and
// once the ack said 3, a late publish of 2 must not be pushed at all. A
// subscriber therefore sees 2 pushed, 3 acked, then only newer heads,
// and counts nothing out of order.
func TestSubscribeAckWaitsForPushInFlight(t *testing.T) {
	hub := NewHub("test")
	defer hub.Close()
	var mu sync.Mutex
	cur := hubHead(1)
	ackedDuringWrite := false
	ln := &gatedListener{MemListener: transport.NewMemListener()}
	srv := transport.NewServer()
	RegisterHub(srv, hub, func() []gossip.GossipHead {
		mu.Lock()
		defer mu.Unlock()
		if ln.writing() {
			ackedDuringWrite = true
		}
		return []gossip.GossipHead{cur}
	})
	defer ln.Close()
	go srv.Serve(ln)

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	var pushed []uint64
	var pmu sync.Mutex
	sub := NewSubscriber(conn)
	sub.OnHeads = func(from string, heads []gossip.GossipHead) {
		if from == "" {
			return // an ack
		}
		pmu.Lock()
		defer pmu.Unlock()
		for _, gh := range heads {
			pushed = append(pushed, gh.Head.Size)
		}
	}
	defer sub.Close()
	if err := sub.Subscribe("t"); err != nil {
		t.Fatal(err)
	}

	entered := ln.arm()
	hub.Publish([]gossip.GossipHead{hubHead(2)})
	<-entered // the push of 2 is now mid-write
	mu.Lock()
	cur = hubHead(3)
	mu.Unlock()
	acked := make(chan error, 1)
	go func() { acked <- sub.Subscribe("t") }()
	select {
	case err := <-acked:
		t.Fatalf("subscribe returned (%v) while a push was mid-write", err)
	case <-time.After(50 * time.Millisecond):
	}
	ln.open()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if ackedDuringWrite {
		t.Fatal("the ack's heads were read while an older push was mid-write")
	}
	mu.Unlock()

	dropped := hub.droppedCount()
	hub.Publish([]gossip.GossipHead{hubHead(2)})
	if hub.droppedCount() != dropped+1 {
		t.Fatal("a head older than the ack was queued for push")
	}
	hub.Publish([]gossip.GossipHead{hubHead(4)})
	deadline := time.Now().Add(10 * time.Second)
	for {
		heads := sub.Heads()
		if len(heads) == 1 && heads[0].Head.Size == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber stuck at %+v, want size 4", heads)
		}
		time.Sleep(time.Millisecond)
	}
	if st := sub.Stats(); st.OutOfOrder != 0 {
		t.Fatalf("%d out-of-order heads observed", st.OutOfOrder)
	}
	pmu.Lock()
	defer pmu.Unlock()
	if len(pushed) != 2 || pushed[0] != 2 || pushed[1] != 4 {
		t.Fatalf("pushed sizes %v, want [2 4]", pushed)
	}
}
