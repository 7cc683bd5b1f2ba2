package domain

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/framework"
	"repro/internal/tee"
	"repro/internal/transport"
)

// The audit reply goldens: what a client writes for an "audit" call and
// what the server answers, for a fixed reply of each attestation kind.
// testdata/audit_binary_<name>.hex holds two lines, the request frame and
// the reply frame, length words included. The reply lines were recorded
// on the commit that introduced the binary form, as the answer to a
// wire-v1 request carrying the offer of v2, and are never rewritten;
//
//	UPDATE_GOLDEN=1 go test -run TestAuditReplyGoldens ./internal/domain/
//
// rewrites only the request lines, with what this commit's client
// writes. testdata/audit_json_<name>.hex holds the request and the JSON
// reply of the commit before the binary form; its request line, a
// wire-v1 frame, is now the refusal golden.

// seq is n bytes counting up from first.
func seq(n int, first byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = first + byte(i)
	}
	return b
}

// goldenReplies are the fixed replies: a TEE domain's under a quote with
// a pending update, and domain 0's under its host key, replying with a
// suffix from record 1.
func goldenReplies() []struct {
	name string
	req  AuditRequest
	resp *AuditResponse
} {
	q := &tee.Quote{Vendor: "vendor-a", PlatformID: "host-domain-1",
		AttKey: seq(32, 0x40), Endorsement: seq(64, 0x60), Signature: seq(64, 0xa0)}
	copy(q.Measurement[:], seq(32, 0x10))
	copy(q.ReportData[:], seq(64, 0x30))
	return []struct {
		name string
		req  AuditRequest
		resp *AuditResponse
	}{
		{"tee", AuditRequest{StatusNonce: seq(32, 1), HistoryNonce: seq(32, 2)}, &AuditResponse{
			Domain: "domain-1",
			Status: framework.Status{Version: 2, CurrentDigest: strings.Repeat("ab", 32), LogLen: 2,
				LogHead: seq(32, 0x20), Counter: 3,
				Pending: &framework.PendingUpdate{Version: 3, Digest: strings.Repeat("cd", 32)}},
			Records: [][]byte{seq(40, 0x50), seq(40, 0x70)},
			Quote:   q,
		}},
		{"host", AuditRequest{StatusNonce: seq(32, 3), HistoryNonce: seq(32, 4), From: 1}, &AuditResponse{
			Domain: "domain-0",
			Status: framework.Status{Version: 2, CurrentDigest: strings.Repeat("ab", 32), LogLen: 2,
				LogHead: seq(32, 0x20), Frozen: true},
			From:       1,
			Records:    [][]byte{seq(40, 0x70)},
			HostKey:    seq(32, 0x80),
			HostSig:    seq(64, 0x90),
			HostReport: seq(64, 0xc0),
		}},
	}
}

// serveGoldenAudit serves "audit" from resp through the handler the
// domains register.
func serveGoldenAudit(t *testing.T, resp *AuditResponse) *transport.MemListener {
	t.Helper()
	srv := transport.NewServer()
	srv.Handle("audit", auditHandler(func(*AuditRequest) (*AuditResponse, error) { return resp, nil }))
	ln := transport.NewMemListener()
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln
}

// tap records the bytes a client connection writes and reads.
type tap struct {
	net.Conn
	mu      sync.Mutex
	out, in bytes.Buffer
}

func (c *tap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// recordAuditRequest makes one call through a tapped client and writes
// the request frame it sent as the first line of
// testdata/audit_binary_<name>.hex, keeping the recorded reply line.
func recordAuditRequest(t *testing.T, name string, req AuditRequest, resp *AuditResponse) {
	t.Helper()
	_, reply := readAuditGolden(t, "binary_"+name)
	conn, err := serveGoldenAudit(t, resp).Dial()
	if err != nil {
		t.Fatal(err)
	}
	wire := &tap{Conn: conn}
	c := transport.NewClient(wire)
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	var out AuditResponse
	if err := c.Call("audit", req, &out); err != nil {
		t.Fatal(err)
	}
	wire.mu.Lock()
	text := hex.EncodeToString(wire.out.Bytes()) + "\n" + hex.EncodeToString(reply) + "\n"
	wire.mu.Unlock()
	if err := os.WriteFile(filepath.Join("testdata", "audit_binary_"+name+".hex"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readAuditGolden(t *testing.T, name string) (request, reply []byte) {
	t.Helper()
	path := filepath.Join("testdata", "audit_"+name+".hex")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(text))
	if len(lines) != 2 {
		t.Fatalf("%s: %d lines, want a request and a reply", path, len(lines))
	}
	if request, err = hex.DecodeString(lines[0]); err == nil {
		reply, err = hex.DecodeString(lines[1])
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return request, reply
}

// jsonRoundTrip is what a value becomes through the JSON form.
func jsonRoundTrip(t *testing.T, r *AuditResponse) AuditResponse {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out AuditResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAuditReplyGoldens: this commit's client writes the recorded
// request byte for byte, and the server answers it with the recorded
// binary reply, which decodes to the reply served. The reply differs
// from the recording in one bit: flag bit 4 of its envelope, with which
// the server acknowledged the v2 offer that request carried, and which
// no longer exists. The recorded wire-v1 request of the JSON golden
// ends its connection without a reply.
func TestAuditReplyGoldens(t *testing.T) {
	for _, g := range goldenReplies() {
		if os.Getenv("UPDATE_GOLDEN") == "1" {
			recordAuditRequest(t, g.name, g.req, g.resp)
		}
		request, reply := readAuditGolden(t, "binary_"+g.name)
		// Length word, marker, then the flags byte: reply, binary, and
		// the acknowledgement.
		if len(reply) < 6 || reply[4] != 0xB2 || reply[5] != 0x15 {
			t.Fatalf("%s: the recorded reply does not open with the acknowledging flags: %x", g.name, reply[:min(len(reply), 6)])
		}
		want := bytes.Clone(reply)
		want[5] &^= 1 << 4

		conn, err := serveGoldenAudit(t, g.resp).Dial()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(request); err != nil {
			t.Fatal(err)
		}
		payload, err := transport.ReadFrame(conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		transport.WriteFrame(&got, payload)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: the reply differs from the recorded one\n got  %x\n want %x", g.name, got.Bytes(), want)
		}

		// The request this commit writes is the recorded one, and the
		// reply decodes to the reply served.
		cli, srv := net.Pipe()
		sent := make(chan []byte, 1)
		go func() {
			defer srv.Close()
			payload, err := transport.ReadFrame(srv)
			if err != nil {
				sent <- nil
				return
			}
			var frame bytes.Buffer
			transport.WriteFrame(&frame, payload)
			sent <- frame.Bytes()
			srv.Write(want)
		}()
		c := transport.NewClient(cli)
		c.SetTimeout(5 * time.Second)
		var viaBinary AuditResponse
		if err := c.Call("audit", g.req, &viaBinary); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if got := <-sent; !bytes.Equal(got, request) {
			t.Errorf("%s: the request differs from the recorded one\n got  %x\n want %x", g.name, got, request)
		}
		if want := jsonRoundTrip(t, g.resp); !reflect.DeepEqual(viaBinary, want) {
			t.Errorf("%s: the binary reply decodes to %+v, want %+v", g.name, viaBinary, want)
		}

		// A request from before wire v2 is refused: no reply, the
		// connection ends.
		v1Request, _ := readAuditGolden(t, "json_"+g.name)
		conn, err = serveGoldenAudit(t, g.resp).Dial()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(v1Request); err != nil {
			t.Fatal(err)
		}
		payload, err = transport.ReadFrame(conn)
		conn.Close()
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s: a wire-v1 audit request was answered %.60q (%v), want the connection closed", g.name, payload, err)
		}
	}
}
