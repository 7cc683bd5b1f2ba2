//go:build unix

package domain

import (
	"bytes"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/transport"
)

// acceptLog wraps a listener and keeps every connection it accepts.
type acceptLog struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

// wrap is a Config.WrapListener that logs into l.
func (l *acceptLog) wrap(ln net.Listener) net.Listener {
	l.Listener = ln
	return l
}

func (l *acceptLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *acceptLog) accepted() []net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]net.Conn(nil), l.conns...)
}

// isUnixStream reports whether c's descriptor is a connected AF_UNIX
// stream socket, whatever Go type wraps it.
func isUnixStream(t *testing.T, c net.Conn) bool {
	t.Helper()
	sc, ok := c.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var local syscall.Sockaddr
	var typ int
	var lerr, terr error
	if err := raw.Control(func(fd uintptr) {
		local, lerr = syscall.Getsockname(int(fd))
		typ, terr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TYPE)
	}); err != nil || lerr != nil || terr != nil {
		t.Fatal(err, lerr, terr)
	}
	_, unix := local.(*syscall.SockaddrUnix)
	return unix && typ == syscall.SOCK_STREAM
}

// TestTEEHopsAreUnixStreams: the enclave server of a TEE domain accepts
// each proxied client as one end of an AF_UNIX stream, and the framework
// reaches the application executor over another. The public endpoint and
// domain 0's stay TCP.
func TestTEEHopsAreUnixStreams(t *testing.T) {
	log := new(acceptLog)
	d, _, _ := startWrapped(t, true, log.wrap)
	if n := d.proxyLn.Addr().Network(); n != "tcp" {
		t.Fatalf("public endpoint on %q, want tcp", n)
	}
	c := dial(t, d)
	var resp InvokeResponse
	if err := c.Call("invoke", InvokeRequest{Request: []byte("hop")}, &resp); err != nil {
		t.Fatal(err)
	}
	got := log.accepted()
	if len(got) != 1 || !isUnixStream(t, got[0]) {
		t.Fatalf("enclave server accepted %v, want one AF_UNIX stream", got)
	}
	d.appMu.Lock()
	app := d.appConn
	d.appMu.Unlock()
	if app == nil || !isUnixStream(t, app) {
		t.Fatalf("framework→executor hop is %T, want an AF_UNIX stream", app)
	}

	log0 := new(acceptLog)
	d0, _, _ := startWrapped(t, false, log0.wrap)
	c0 := dial(t, d0)
	if err := c0.Call("invoke", InvokeRequest{Request: []byte("direct")}, &resp); err != nil {
		t.Fatal(err)
	}
	if got := log0.accepted(); len(got) != 1 || got[0].LocalAddr().Network() != "tcp" || isUnixStream(t, got[0]) {
		t.Fatalf("domain 0 accepted %v, want one TCP connection", got)
	}
}

// hopGoroutines lists the goroutines running domain, proxy or enclave
// server code.
func hopGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/domain.(*") || strings.Contains(g, "internal/transport.(*Server)") {
			out = append(out, g)
		}
	}
	return out
}

// openFDs counts the process's open descriptors of every kind. A leaked
// one stays open until its finalizer runs, so nothing here collects.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(fds)
}

func tempEntries(t *testing.T) []string {
	t.Helper()
	es, err := os.ReadDir(os.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

// TestCloseLeavesNoHop: once Close returns, no goroutine of the proxy,
// the hops or the enclave server runs, even with a client still
// connected; once that client is gone too, the process holds as many
// descriptors as before the domain started, and the temp dir holds
// nothing new.
func TestCloseLeavesNoHop(t *testing.T) {
	// The first domain of the process sets up the runtime's poller.
	warm, _, _ := startDomain(t, true)
	warm.Close()
	fds, temp := openFDs(t), tempEntries(t)

	d, _, _ := startDomain(t, true)
	for i := 0; i < 3; i++ {
		c, err := transport.Dial(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var resp InvokeResponse
		if err := c.Call("invoke", InvokeRequest{Request: []byte("x")}, &resp); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	live, err := transport.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := live.Call("status", StatusRequest{Nonce: []byte("n")}, &st); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if gs := hopGoroutines(); len(gs) != 0 {
		t.Fatalf("%d goroutines outlive Close:\n%s", len(gs), strings.Join(gs, "\n\n"))
	}
	live.Close()
	if n := openFDs(t); n != fds {
		t.Fatalf("%d descriptors open after Close, %d before Start", n, fds)
	}
	if now := tempEntries(t); strings.Join(now, "\n") != strings.Join(temp, "\n") {
		t.Fatalf("temp dir changed: %v before, %v after", temp, now)
	}
}

// hopStates reports what the proxy's two pumps and the enclave server's
// connection wait for: "read", "write", or "" while running or gone.
func hopStates() (request, server, reply string) {
	for _, g := range hopGoroutines() {
		state := ""
		if strings.Contains(g, "waitRead") {
			state = "read"
		} else if strings.Contains(g, "waitWrite") {
			state = "write"
		}
		switch {
		case strings.Contains(g, "internal/domain.(*Domain).proxy.func"):
			reply = state
		case strings.Contains(g, "internal/domain.(*Domain).proxy("):
			request = state
		case strings.Contains(g, "internal/transport.(*Server).serveConn("):
			server = state
		}
	}
	return request, server, reply
}

// waitHop polls hopStates until cond holds, for at most five seconds.
func waitHop(cond func(request, server, reply string) bool) bool {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if cond(hopStates()) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// TestCloseWithAStalledClient: a client that sends requests and never
// reads a reply leaves the proxy's reply pump blocked writing to it and
// its request pump waiting to read from it, and nothing the enclave
// server closes reaches either. Close must still end both.
func TestCloseWithAStalledClient(t *testing.T) {
	d, _, _ := startDomain(t, true)
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small receive buffer fills after fewer replies.
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	// One _batch of statuses: a short request, a long reply. The frame is
	// the one a Client writes, taken off a pipe nobody answers on.
	calls := make([]transport.BatchCall, 256)
	for i := range calls {
		calls[i] = transport.BatchCall{Kind: "status", In: StatusRequest{Nonce: []byte("n")}}
	}
	cli, srv := net.Pipe()
	go transport.NewClient(cli).CallBatch(calls)
	frame, err := transport.ReadFrame(srv)
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Send a batch whenever the last one's replies have left the proxy,
	// until they fill every buffer on their way to the client. A batch
	// sent early waits in the socketpair, which holds many.
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("the reply pump never blocked")
		}
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := transport.WriteFrame(conn, frame); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		var blocked bool
		if !waitHop(func(request, server, reply string) bool {
			blocked = reply == "write"
			return blocked || request == "read" && server == "read" && reply == "read"
		}) {
			request, server, reply := hopStates()
			t.Fatalf("batch %d: hop waits to %q, %q, %q", i, request, server, reply)
		}
		if blocked {
			break
		}
	}
	if !waitHop(func(request, _, reply string) bool { return request == "read" && reply == "write" }) {
		request, _, reply := hopStates()
		t.Fatalf("pumps wait to %q (request) and %q (reply), want read and write", request, reply)
	}
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked by a client that reads nothing")
	}
}

// TestFaultSeamSeesProxiedClients: WrapListener wraps what the enclave
// server accepts, so an injector's accept rules act on every client of a
// TEE domain: a drop fails the client's call, a delay delays it.
func TestFaultSeamSeesProxiedClients(t *testing.T) {
	inject := func(rule fault.Rule) *Domain {
		inj := fault.Activate(&fault.Schedule{Seed: 1, Rules: []fault.Rule{rule}}, "domain")
		d, _, _ := startWrapped(t, true, inj.Listener)
		return d
	}
	call := func(d *Domain) (time.Duration, error) {
		c, err := transport.Dial(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var resp InvokeResponse
		t0 := time.Now()
		err = c.Call("invoke", InvokeRequest{Request: []byte("chaos")}, &resp)
		if err == nil && !bytes.Equal(resp.Response, []byte("chaos")) {
			t.Fatalf("echo mismatch: %q", resp.Response)
		}
		return time.Since(t0), err
	}

	d := inject(fault.Rule{Kind: fault.KindDrop, Dir: fault.DirIn, Count: 1})
	if _, err := call(d); err == nil {
		t.Fatal("call through a dropped accept succeeded")
	}
	if _, err := call(d); err != nil {
		t.Fatalf("call after the drop rule ran out: %v", err)
	}

	const delay = 200 * time.Millisecond
	d = inject(fault.Rule{Kind: fault.KindDelay, Dir: fault.DirIn, Count: 1, Delay: delay})
	if took, err := call(d); err != nil || took < delay {
		t.Fatalf("call under a %v accept delay took %v (err %v)", delay, took, err)
	}
}

// BenchmarkProxiedConn: one fresh client connection per op, carrying one
// status call, through a TEE domain's proxy (tee) and straight to
// domain 0's server (direct). The difference is what the host→enclave
// hop costs a connection. cpu-us/op is the process's CPU time, client
// and server together.
func BenchmarkProxiedConn(b *testing.B) {
	for _, c := range []struct {
		name string
		tee  bool
	}{{"tee", true}, {"direct", false}} {
		b.Run(c.name, func(b *testing.B) {
			d, _, _ := startDomain(b, c.tee)
			req := StatusRequest{Nonce: []byte("n")}
			cpu0 := processCPU(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl, err := transport.Dial(d.Addr())
				if err != nil {
					b.Fatal(err)
				}
				var resp StatusResponse
				if err := cl.Call("status", req, &resp); err != nil {
					b.Fatal(err)
				}
				cl.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64((processCPU(b)-cpu0).Microseconds())/float64(b.N), "cpu-us/op")
		})
	}
}

func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
