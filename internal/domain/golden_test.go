package domain

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
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

// The audit reply goldens: what a client that offers wire v2 writes for
// an "audit" call and what the server answers, for a fixed reply of each
// attestation kind. testdata/audit_json_<name>.hex is a request without
// Binary and its JSON reply, recorded on the commit before the binary
// form existed, so it pins that old clients keep receiving the same
// bytes; testdata/audit_binary_<name>.hex is a request with Binary and
// its binary reply. Each file holds two lines, the request frame and
// the reply frame, length words included. Regenerate the binary ones
// with
//
//	UPDATE_GOLDEN=1 go test -run TestAuditReplyGoldens ./internal/domain/
//
// and the JSON ones only on a clone of a commit whose replies are
// trusted, never on the commit under test.

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

// recordAuditGolden makes one call through a tapped client and writes
// the request and reply frames to testdata/audit_<name>.hex.
func recordAuditGolden(t *testing.T, name string, req AuditRequest, resp *AuditResponse) {
	t.Helper()
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
	text := hex.EncodeToString(wire.out.Bytes()) + "\n" + hex.EncodeToString(wire.in.Bytes()) + "\n"
	wire.mu.Unlock()
	if err := os.WriteFile(filepath.Join("testdata", "audit_"+name+".hex"), []byte(text), 0o644); err != nil {
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

// TestAuditReplyGoldens: a recorded request without Binary gets exactly
// the recorded JSON reply, and this commit writes that request byte for
// byte; a request with Binary gets exactly the recorded binary reply,
// which decodes to the reply served. This commit's client, asking for
// binary from a server that ignores the field (one that answers with
// the recorded JSON reply), decodes the same reply.
func TestAuditReplyGoldens(t *testing.T) {
	for _, g := range goldenReplies() {
		binReq := g.req
		binReq.Binary = true
		if os.Getenv("UPDATE_GOLDEN") == "1" {
			recordAuditGolden(t, "binary_"+g.name, binReq, g.resp)
		}
		for _, form := range []string{"json", "binary"} {
			request, reply := readAuditGolden(t, form+"_"+g.name)
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
			// Wire v2 envelope: 0xB2, then flags, where 4 marks a binary body.
			if binaryBody := len(payload) > 1 && payload[0] == 0xB2 && payload[1]&4 != 0; binaryBody != (form == "binary") {
				t.Errorf("%s %s: reply body binary = %v", form, g.name, binaryBody)
			}
			var got bytes.Buffer
			transport.WriteFrame(&got, payload)
			if !bytes.Equal(got.Bytes(), reply) {
				t.Errorf("%s %s: the reply differs from the recorded one\n got  %x\n want %x", form, g.name, got.Bytes(), reply)
			}
		}

		// The request this commit writes without Binary is the recorded one.
		request, jsonReply := readAuditGolden(t, "json_"+g.name)
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
			srv.Write(jsonReply)
		}()
		c := transport.NewClient(cli)
		c.SetTimeout(5 * time.Second)
		var viaJSON AuditResponse
		if err := c.Call("audit", g.req, &viaJSON); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if got := <-sent; !bytes.Equal(got, request) {
			t.Errorf("%s: the request without Binary differs from the recorded one\n got  %x\n want %x", g.name, got, request)
		}
		want := jsonRoundTrip(t, g.resp)
		if !reflect.DeepEqual(viaJSON, want) {
			t.Errorf("%s: the recorded JSON reply decodes to %+v, want %+v", g.name, viaJSON, want)
		}

		// Asking for binary from a server that ignores the field.
		cli, srv = net.Pipe()
		go func() {
			defer srv.Close()
			if _, err := transport.ReadFrame(srv); err == nil {
				srv.Write(jsonReply)
			}
		}()
		c = transport.NewClient(cli)
		c.SetTimeout(5 * time.Second)
		var fromOld AuditResponse
		if err := c.Call("audit", binReq, &fromOld); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if !reflect.DeepEqual(fromOld, want) {
			t.Errorf("%s: a server that ignores Binary answered %+v, want %+v", g.name, fromOld, want)
		}

		// The binary reply decodes to the reply served.
		conn, err := serveGoldenAudit(t, g.resp).Dial()
		if err != nil {
			t.Fatal(err)
		}
		c = transport.NewClient(conn)
		c.SetTimeout(5 * time.Second)
		var viaBinary AuditResponse
		if err := c.Call("audit", binReq, &viaBinary); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if !reflect.DeepEqual(viaBinary, want) {
			t.Errorf("%s: the binary reply decodes to %+v, want %+v", g.name, viaBinary, want)
		}
	}
}
