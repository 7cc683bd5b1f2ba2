// Package domain implements one trust domain of Figure 2: a server that
// hosts the application-independent framework, optionally inside a
// simulated TEE, and serves the audit/update/invoke protocol to clients.
//
// Topology for a TEE-backed domain (mirrors the paper's AWS Nitro
// prototype, §5, where the host reaches its enclave over vsock): the
// public endpoint is a host-side proxy that forwards raw frames to the
// in-enclave RPC server over a connected AF_UNIX stream socketpair, one
// per client, and application invocations cross a second socketpair
// between the framework and the sandboxed application executor. Like
// vsock, these hops have no handshake, no port and no name on any file
// system. Those two additional kernel sockets are exactly the overhead
// the paper attributes the TEE+Sandbox row of Table 3 to. Each end of a
// pair is its descriptor itself, made nonblocking and close-on-exec and
// polled by the runtime, and the proxy moves a client's bytes with two
// plain read/write pumps, one per direction.
//
// Trust domain 0 (the developer's own, no secure hardware) serves the RPC
// endpoint directly and authenticates its responses with a plain host key
// instead of TEE quotes.
package domain

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
	"repro/internal/transport"
)

// Request/response bodies for the domain protocol.

// StatusRequest carries a client audit nonce.
type StatusRequest struct {
	Nonce []byte `json:"nonce"`
}

// StatusResponse is the attested framework status. Exactly one of Quote
// (TEE domains) or HostKey/HostSig (domain 0) authenticates it; either
// covers the 64 bytes of ReportData, whose first half binds the status.
// HostReport is those 64 bytes as domain 0 signed them (a quote carries
// them as its ReportData); a reply without it signed the status half
// alone.
type StatusResponse struct {
	Domain     string           `json:"domain"`
	Status     framework.Status `json:"status"`
	Quote      *tee.Quote       `json:"quote,omitempty"`
	HostKey    []byte           `json:"host_key,omitempty"`
	HostSig    []byte           `json:"host_sig,omitempty"`
	HostReport []byte           `json:"host_report,omitempty"`
}

// HistoryRequest carries a client audit nonce binding the history reply.
// From asks for only records[From:] — the delta path for auditors that
// already verified a prefix (audit.Client caches its last verified
// (length, head) per domain and checks the suffix with
// aolog.VerifyExtension instead of re-fetching and re-hashing the full
// history every audit).
type HistoryRequest struct {
	Nonce []byte `json:"nonce"`
	From  int    `json:"from,omitempty"`
}

// HistoryResponse returns the update-record history from index From
// (0 = full history) plus an authentication of (records, nonce): the
// history binding in the second half of the attested report data, under
// a quote for TEE domains or a host-key signature for domain 0.
type HistoryResponse struct {
	Domain     string     `json:"domain"`
	From       int        `json:"from,omitempty"`
	Records    [][]byte   `json:"records"`
	Quote      *tee.Quote `json:"quote,omitempty"`
	HostKey    []byte     `json:"host_key,omitempty"`
	HostSig    []byte     `json:"host_sig,omitempty"`
	HostReport []byte     `json:"host_report,omitempty"`
}

// AuditRequest asks for the status and the history from From in one
// call, each bound to a nonce of its own. The reply is an AuditResponse
// in its binary form (binary.go).
type AuditRequest struct {
	StatusNonce  []byte `json:"status_nonce"`
	HistoryNonce []byte `json:"history_nonce"`
	From         int    `json:"from,omitempty"`
}

// AuditResponse is the status and the history from From, read from one
// framework snapshot and authenticated by one attestation over
// ReportData(status binding, history binding). StatusResponse and
// HistoryResponse split it into the two envelopes a client keeps; both
// carry the same attestation.
type AuditResponse struct {
	Domain     string           `json:"domain"`
	Status     framework.Status `json:"status"`
	From       int              `json:"from,omitempty"`
	Records    [][]byte         `json:"records"`
	Quote      *tee.Quote       `json:"quote,omitempty"`
	HostKey    []byte           `json:"host_key,omitempty"`
	HostSig    []byte           `json:"host_sig,omitempty"`
	HostReport []byte           `json:"host_report,omitempty"`
}

// StatusResponse is the status half of the reply, under its attestation.
func (r *AuditResponse) StatusResponse() StatusResponse {
	return StatusResponse{Domain: r.Domain, Status: r.Status, Quote: r.Quote,
		HostKey: r.HostKey, HostSig: r.HostSig, HostReport: r.HostReport}
}

// HistoryResponse is the history half of the reply, under its attestation.
func (r *AuditResponse) HistoryResponse() HistoryResponse {
	return HistoryResponse{Domain: r.Domain, From: r.From, Records: r.Records, Quote: r.Quote,
		HostKey: r.HostKey, HostSig: r.HostSig, HostReport: r.HostReport}
}

// InvokeRequest is an application request.
type InvokeRequest struct {
	Request []byte `json:"request"`
}

// InvokeResponse is an application response.
type InvokeResponse struct {
	Response []byte `json:"response"`
}

// InvokeBatchRequest carries many application requests in one RPC, so a
// client signing a batch of messages pays one public-socket round trip per
// domain instead of one per message.
type InvokeBatchRequest struct {
	Requests [][]byte `json:"requests"`
}

// InvokeBatchResponse returns one entry per request; a failed invocation
// yields an empty Response and its error text in Errors at the same index.
type InvokeBatchResponse struct {
	Responses [][]byte `json:"responses"`
	Errors    []string `json:"errors,omitempty"`
}

// UpdateRequest ships a developer-signed update.
type UpdateRequest struct {
	Version     uint64 `json:"version"`
	ModuleBytes []byte `json:"module_bytes"`
	DevSig      []byte `json:"dev_sig"`
	StageOnly   bool   `json:"stage_only"`
}

// HistoryBindingFrom is the signed/attested value for a history
// response starting at `from`. From == 0 keeps the v1 full-history
// binding; a suffix binds its offset under a distinct domain-separation
// tag, so a signed suffix can NEVER be re-presented as (or confused
// with) a signed full history — misbehavior-proof verifiers rely on
// the two being unforgeable into each other.
func HistoryBindingFrom(from int, records [][]byte, nonce []byte) []byte {
	h := sha256.New()
	if from == 0 {
		h.Write([]byte("domain-history-binding-v1"))
	} else {
		h.Write([]byte("domain-history-suffix-binding-v1"))
		var fromBuf [8]byte
		binary.BigEndian.PutUint64(fromBuf[:], uint64(from))
		h.Write(fromBuf[:])
	}
	var lenBuf [4]byte
	for _, r := range records {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(r)))
		h.Write(lenBuf[:])
		h.Write(r)
	}
	h.Write(nonce)
	return h.Sum(nil)
}

// ReportData lays out the 64 bytes one attestation covers: rd[0:32] is
// the status binding (framework.StatusReportData's first half), rd[32:64]
// the history binding (HistoryBindingFrom). A nil half stays 32 zero
// bytes, so a status-only reply attests exactly what
// framework.AttestedStatus does.
func ReportData(status, history []byte) [64]byte {
	var rd [64]byte
	copy(rd[:32], status)
	copy(rd[32:], history)
	return rd
}

// Config describes one trust domain.
type Config struct {
	// Name identifies the domain in audit results.
	Name string
	// Vendor provisions a TEE for this domain; nil builds trust domain 0
	// (developer-operated, no secure hardware).
	Vendor *tee.Vendor
	// DeveloperKey is the update-verification key sealed at provisioning.
	DeveloperKey ed25519.PublicKey
	// Hosts are the host functions exposed to sandboxed application code
	// (application state such as key shares lives behind these).
	Hosts map[string]*sandbox.HostFunc
	// FrameworkOptions are passed through to framework.New.
	FrameworkOptions []framework.Option
	// WrapListener, when set, wraps the listener the domain's RPC server
	// accepts from: domain 0's TCP endpoint, or a TEE domain's
	// host→enclave hop, which sees every proxied client (the chaos plane
	// passes fault.Injector.Listener).
	WrapListener func(net.Listener) net.Listener
}

// Domain is a running trust domain.
type Domain struct {
	name    string
	fw      *framework.Framework
	enclave *tee.Enclave

	hostKey  ed25519.PrivateKey // domain-0 response authentication
	hostPub  ed25519.PublicKey
	hasTEE   bool
	publicAd string

	enclaveServer *transport.Server
	hop           *hopListener // TEE: the enclave end of each client's host→enclave hop
	proxyLn       net.Listener
	proxyWG       sync.WaitGroup
	proxyMu       sync.Mutex
	proxied       map[net.Conn]struct{} // TEE: public connections in the proxy; nil once Close began

	appMu     sync.Mutex
	appConn   net.Conn // framework end of the framework→executor hop
	appClosed bool
	appWG     sync.WaitGroup
}

// Start provisions and launches a trust domain.
func Start(cfg Config) (*Domain, error) {
	if cfg.Name == "" {
		return nil, errors.New("domain: name required")
	}
	d := &Domain{name: cfg.Name}

	if cfg.Vendor != nil {
		enclave, err := cfg.Vendor.Provision("host-"+cfg.Name, framework.Measure(cfg.DeveloperKey))
		if err != nil {
			return nil, fmt.Errorf("domain %s: provisioning enclave: %w", cfg.Name, err)
		}
		d.enclave = enclave
		d.hasTEE = true
	} else {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("domain %s: host keygen: %w", cfg.Name, err)
		}
		d.hostKey, d.hostPub = priv, pub
	}

	fw, err := framework.New(cfg.DeveloperKey, d.enclave, cfg.Hosts, cfg.FrameworkOptions...)
	if err != nil {
		return nil, fmt.Errorf("domain %s: %w", cfg.Name, err)
	}
	d.fw = fw

	// The public endpoint: the host-side proxy of a TEE domain, or
	// domain 0's RPC server itself. It is loopback only, so accepted
	// connections skip TCP keepalive and the setsockopt calls it costs.
	lc := net.ListenConfig{KeepAlive: -1}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("domain %s: listen: %w", cfg.Name, err)
	}
	d.publicAd = ln.Addr().String()
	enclaveLn := ln
	if d.hasTEE {
		d.proxyLn = ln
		d.proxied = make(map[net.Conn]struct{})
		d.hop = newHopListener()
		enclaveLn = d.hop
	}
	if cfg.WrapListener != nil {
		enclaveLn = cfg.WrapListener(enclaveLn)
	}
	d.enclaveServer = transport.NewServer()
	d.registerHandlers()
	d.enclaveServer.Serve(enclaveLn)
	if d.hasTEE {
		d.proxyWG.Add(1)
		go d.runProxy()
	}
	return d, nil
}

// runProxy forwards raw bytes between public clients and the enclave RPC
// server, over one fresh socketpair per client: the first additional
// socket hop.
func (d *Domain) runProxy() {
	defer d.proxyWG.Done()
	for {
		conn, err := d.proxyLn.Accept()
		if err != nil {
			return
		}
		d.proxyWG.Add(1)
		go d.proxy(conn)
	}
}

// proxy hands the enclave server one end of a fresh socketpair for conn
// and pumps bytes between conn and the other end: requests here, replies
// on one more goroutine. Whichever pump stops first closes both
// connections, which stops the other. Close closes conn, which stops
// both even when the reply pump is stuck writing to a client that reads
// nothing, and waits for them.
func (d *Domain) proxy(conn net.Conn) {
	defer d.proxyWG.Done()
	d.proxyMu.Lock()
	if d.proxied == nil {
		d.proxyMu.Unlock()
		conn.Close()
		return
	}
	d.proxied[conn] = struct{}{}
	d.proxyMu.Unlock()
	defer func() {
		d.proxyMu.Lock()
		delete(d.proxied, conn)
		d.proxyMu.Unlock()
	}()
	host, enclave, err := socketPair()
	if err != nil {
		conn.Close()
		return
	}
	if !d.hop.hand(enclave) {
		enclave.Close()
		host.Close()
		conn.Close()
		return
	}
	d.proxyWG.Add(1)
	go func() {
		defer d.proxyWG.Done()
		pump(conn, host)
	}()
	pump(host, conn)
}

// pumpBuffers holds the pumps' copy buffers between connections.
var pumpBuffers = sync.Pool{New: func() any { return new([pumpBufferSize]byte) }}

// pumpBufferSize is the most one Read of a pump moves; a larger frame
// crosses in pieces.
const pumpBufferSize = 16 << 10

// pump writes everything it reads from src to dst, one Read and one
// Write at a time, until either fails; then it closes both.
func pump(dst, src net.Conn) {
	buf := pumpBuffers.Get().(*[pumpBufferSize]byte)
	for {
		n, err := src.Read(buf[:])
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	pumpBuffers.Put(buf)
	dst.Close()
	src.Close()
}

// runApp is the in-enclave application executor: it runs framework.Invoke
// for each frame arriving on its end of the framework→executor hop, the
// second additional socket hop of the TEE deployment.
func (d *Domain) runApp(conn net.Conn) {
	defer d.appWG.Done()
	defer conn.Close()
	for {
		req, err := transport.ReadFrame(conn)
		if err != nil {
			return
		}
		resp, err := d.fw.Invoke(req)
		if err != nil {
			// In-band error marker: 0xff prefix.
			resp = append([]byte{0xff}, []byte(err.Error())...)
		} else {
			resp = append([]byte{0x00}, resp...)
		}
		if err := transport.WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// invokeViaAppSocket routes an application request through the in-enclave
// hop (TEE domains), lazily starting the executor on a fresh socketpair.
func (d *Domain) invokeViaAppSocket(request []byte) ([]byte, error) {
	d.appMu.Lock()
	defer d.appMu.Unlock()
	if d.appConn == nil {
		if d.appClosed {
			return nil, fmt.Errorf("domain %s: %w", d.name, net.ErrClosed)
		}
		fwEnd, appEnd, err := socketPair()
		if err != nil {
			return nil, fmt.Errorf("domain %s: app socket: %w", d.name, err)
		}
		d.appWG.Add(1)
		go d.runApp(appEnd)
		d.appConn = fwEnd
	}
	if err := transport.WriteFrame(d.appConn, request); err != nil {
		d.appConn.Close()
		d.appConn = nil
		return nil, err
	}
	resp, err := transport.ReadFrame(d.appConn)
	if err != nil {
		d.appConn.Close()
		d.appConn = nil
		return nil, err
	}
	if len(resp) == 0 {
		return nil, errors.New("domain: empty app socket response")
	}
	if resp[0] == 0xff {
		return nil, fmt.Errorf("domain %s: %s", d.name, string(resp[1:]))
	}
	return resp[1:], nil
}

func (d *Domain) registerHandlers() {
	d.enclaveServer.Handle("status", func(body json.RawMessage) (any, error) {
		var req StatusRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		r, err := d.attest(&AuditRequest{StatusNonce: req.Nonce}, statusHalf)
		if err != nil {
			return nil, err
		}
		return r.StatusResponse(), nil
	})
	d.enclaveServer.Handle("history", func(body json.RawMessage) (any, error) {
		var req HistoryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		r, err := d.attest(&AuditRequest{HistoryNonce: req.Nonce, From: req.From}, historyHalf)
		if err != nil {
			return nil, err
		}
		return r.HistoryResponse(), nil
	})
	d.enclaveServer.Handle("audit", auditHandler(func(req *AuditRequest) (*AuditResponse, error) {
		return d.attest(req, statusHalf|historyHalf)
	}))
	d.enclaveServer.Handle("invoke", func(body json.RawMessage) (any, error) {
		var req InvokeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		var resp []byte
		var err error
		if d.hasTEE {
			resp, err = d.invokeViaAppSocket(req.Request)
		} else {
			resp, err = d.fw.Invoke(req.Request)
		}
		if err != nil {
			return nil, err
		}
		return InvokeResponse{Response: resp}, nil
	})
	d.enclaveServer.HandleNoBatch("invokebatch", func(body json.RawMessage) (any, error) {
		var req InvokeBatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		// Same work cap as the transport's _batch kind: one frame must not
		// queue unbounded application invocations.
		if len(req.Requests) > transport.MaxBatchCalls {
			return nil, fmt.Errorf("domain: batch of %d exceeds limit %d", len(req.Requests), transport.MaxBatchCalls)
		}
		out := InvokeBatchResponse{
			Responses: make([][]byte, len(req.Requests)),
			Errors:    make([]string, len(req.Requests)),
		}
		for i, r := range req.Requests {
			var resp []byte
			var err error
			if d.hasTEE {
				resp, err = d.invokeViaAppSocket(r)
			} else {
				resp, err = d.fw.Invoke(r)
			}
			if err != nil {
				out.Errors[i] = err.Error()
				continue
			}
			out.Responses[i] = resp
		}
		return out, nil
	})
	d.enclaveServer.Handle("update", func(body json.RawMessage) (any, error) {
		var req UpdateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if err := d.fw.StageUpdate(req.Version, req.ModuleBytes, req.DevSig); err != nil {
			return nil, err
		}
		if req.StageOnly {
			return struct{}{}, nil
		}
		if err := d.fw.ActivateUpdate(); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	})
	d.enclaveServer.Handle("activate", func(json.RawMessage) (any, error) {
		if err := d.fw.ActivateUpdate(); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	})
}

// auditHandler serves "audit" from attest. The reply is the
// *AuditResponse itself, whose pointer methods make the transport send
// its binary form.
func auditHandler(attest func(*AuditRequest) (*AuditResponse, error)) func(json.RawMessage) (any, error) {
	return func(body json.RawMessage) (any, error) {
		var req AuditRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return attest(&req)
	}
}

// The halves of the attested report data a reply carries.
const (
	statusHalf  = 1 << iota // rd[0:32], the status binding
	historyHalf             // rd[32:64], the history binding
)

// attest serves status, history and audit requests alike. It reads the
// framework once — the status, plus the records from req.From when the
// history half is asked for, under one lock hold — and authenticates the
// halves asked for with ONE attestation over ReportData: a TEE quote, or
// for domain 0 a host-key signature over the 64 bytes it returns as
// HostReport.
func (d *Domain) attest(req *AuditRequest, halves int) (*AuditResponse, error) {
	out := &AuditResponse{Domain: d.name}
	var status, history []byte
	if halves&historyHalf != 0 {
		st, records, err := d.fw.Snapshot(req.From)
		if err != nil {
			return nil, fmt.Errorf("domain %s: %w", d.name, err)
		}
		// The binding commits to the offset (HistoryBindingFrom); the
		// suffix's place in the chain is established by the client,
		// which extends its previously verified head through the suffix
		// to the attested current head.
		out.Status, out.From, out.Records = st, req.From, records
		history = HistoryBindingFrom(req.From, records, req.HistoryNonce)
	} else {
		out.Status = d.fw.Status()
	}
	if halves&statusHalf != 0 {
		srd := framework.StatusReportData(req.StatusNonce, &out.Status)
		status = srd[:32]
	}
	rd := ReportData(status, history)
	if d.hasTEE {
		out.Quote = d.enclave.GenerateQuote(rd)
		return out, nil
	}
	out.HostKey = d.hostPub
	out.HostReport = rd[:]
	out.HostSig = ed25519.Sign(d.hostKey, rd[:])
	return out, nil
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Addr returns the public address clients dial (the proxy for TEE domains).
func (d *Domain) Addr() string { return d.publicAd }

// HasTEE reports whether the domain runs inside a simulated TEE.
func (d *Domain) HasTEE() bool { return d.hasTEE }

// Platform returns the vendor and platform of a TEE domain's enclave,
// which clients pin at setup (both empty for a non-TEE domain).
func (d *Domain) Platform() (tee.VendorID, string) {
	if d.enclave == nil {
		return "", ""
	}
	return d.enclave.Vendor(), d.enclave.PlatformID()
}

// HostKey returns the response-authentication key of a non-TEE domain
// (nil for TEE domains); clients pin it at setup.
func (d *Domain) HostKey() ed25519.PublicKey {
	return append(ed25519.PublicKey{}, d.hostPub...)
}

// Install provisions the initial application directly (developer-side
// convenience used at deployment setup).
func (d *Domain) Install(version uint64, moduleBytes, devSig []byte) error {
	return d.fw.Install(version, moduleBytes, devSig)
}

// Close shuts down all listeners and connections and waits for every
// goroutine of the domain to end.
func (d *Domain) Close() error {
	if d.proxyLn != nil {
		d.proxyLn.Close()
	}
	// Closes the hop listener too: a proxy goroutine still handing over
	// its enclave end gives up.
	firstErr := d.enclaveServer.Close()
	d.proxyMu.Lock()
	for conn := range d.proxied {
		conn.Close()
	}
	d.proxied = nil
	d.proxyMu.Unlock()
	d.appMu.Lock()
	d.appClosed = true
	if d.appConn != nil {
		d.appConn.Close()
		d.appConn = nil
	}
	d.appMu.Unlock()
	d.proxyWG.Wait()
	d.appWG.Wait()
	return firstErr
}
