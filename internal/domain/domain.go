// Package domain implements one trust domain of Figure 2: a server that
// hosts the application-independent framework, optionally inside a
// simulated TEE, and serves the audit/update/invoke protocol to clients.
//
// Topology for a TEE-backed domain (mirrors the paper's AWS Nitro
// prototype, §5): the public endpoint is a host-side proxy that forwards
// raw frames over a second loopback TCP connection to the in-enclave RPC
// server, and application invocations cross a third loopback connection
// between the framework and the sandboxed application executor. Those two
// additional kernel sockets are exactly the overhead the paper attributes
// the TEE+Sandbox row of Table 3 to.
//
// Trust domain 0 (the developer's own, no secure hardware) serves the RPC
// endpoint directly and authenticates its responses with a plain host key
// instead of TEE quotes.
package domain

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// call, each bound to a nonce of its own. Binary asks for the reply in
// AuditResponse's binary form (binary.go), which the transport sends on
// a wire-v2 connection. A server from before the form ignores the field
// and a client from before it never sets it: both get JSON.
type AuditRequest struct {
	StatusNonce  []byte `json:"status_nonce"`
	HistoryNonce []byte `json:"history_nonce"`
	From         int    `json:"from,omitempty"`
	Binary       bool   `json:"binary,omitempty"`
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

// HistoryBinding hashes (records, nonce) into the signed/attested value
// for a full-history response (From == 0).
func HistoryBinding(records [][]byte, nonce []byte) []byte {
	return HistoryBindingFrom(0, records, nonce)
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
	// WrapListener, when set, wraps the domain's RPC listener (the chaos
	// plane passes fault.Injector.Listener); nil serves plain TCP.
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
	proxyLn       net.Listener
	proxyWG       sync.WaitGroup
	proxyClosed   chan struct{}

	appLn     net.Listener // in-enclave framework<->app socket
	appWG     sync.WaitGroup
	appClosed chan struct{}
	appMu     sync.Mutex
	appConn   net.Conn
}

// Start provisions and launches a trust domain.
func Start(cfg Config) (*Domain, error) {
	if cfg.Name == "" {
		return nil, errors.New("domain: name required")
	}
	d := &Domain{
		name:        cfg.Name,
		proxyClosed: make(chan struct{}),
		appClosed:   make(chan struct{}),
	}

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

	if d.hasTEE {
		if err := d.startAppSocket(); err != nil {
			return nil, err
		}
	}

	d.enclaveServer = transport.NewServer()
	d.registerHandlers()
	enclaveLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("domain %s: enclave server: %w", cfg.Name, err)
	}
	enclaveAddr := enclaveLn.Addr().String()
	if cfg.WrapListener != nil {
		enclaveLn = cfg.WrapListener(enclaveLn)
	}
	d.enclaveServer.Serve(enclaveLn)

	if d.hasTEE {
		// Host-side proxy: the first additional socket hop.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("domain %s: proxy listen: %w", cfg.Name, err)
		}
		d.proxyLn = ln
		d.publicAd = ln.Addr().String()
		d.proxyWG.Add(1)
		go d.runProxy(enclaveAddr)
	} else {
		d.publicAd = enclaveAddr
	}
	return d, nil
}

// runProxy forwards raw bytes between public clients and the enclave RPC
// server, one upstream connection per client.
func (d *Domain) runProxy(upstreamAddr string) {
	defer d.proxyWG.Done()
	for {
		conn, err := d.proxyLn.Accept()
		if err != nil {
			return
		}
		upstream, err := net.Dial("tcp", upstreamAddr)
		if err != nil {
			conn.Close()
			continue
		}
		d.proxyWG.Add(1)
		go func() {
			defer d.proxyWG.Done()
			defer conn.Close()
			defer upstream.Close()
			done := make(chan struct{}, 2)
			go func() { _, _ = io.Copy(upstream, conn); done <- struct{}{} }()
			go func() { _, _ = io.Copy(conn, upstream); done <- struct{}{} }()
			select {
			case <-done:
			case <-d.proxyClosed:
			}
		}()
	}
}

// startAppSocket launches the in-enclave application executor: a loopback
// TCP server whose only job is to run framework.Invoke for each frame.
// This is the second additional socket hop of the TEE deployment.
func (d *Domain) startAppSocket() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("domain %s: app socket: %w", d.name, err)
	}
	d.appLn = ln
	d.appWG.Add(1)
	go func() {
		defer d.appWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			d.appWG.Add(1)
			go func() {
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
			}()
		}
	}()
	return nil
}

// invokeViaAppSocket routes an application request through the in-enclave
// socket (TEE domains), lazily establishing the framework-side connection.
func (d *Domain) invokeViaAppSocket(request []byte) ([]byte, error) {
	d.appMu.Lock()
	defer d.appMu.Unlock()
	if d.appConn == nil {
		conn, err := net.Dial("tcp", d.appLn.Addr().String())
		if err != nil {
			return nil, fmt.Errorf("domain %s: dialing app socket: %w", d.name, err)
		}
		d.appConn = conn
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

// auditHandler serves "audit" from attest. The reply is the response
// itself when the client asked for the binary form, and otherwise a copy
// by value, which has none of the pointer methods that make the
// transport send binary: a client that did not ask gets JSON.
func auditHandler(attest func(*AuditRequest) (*AuditResponse, error)) func(json.RawMessage) (any, error) {
	return func(body json.RawMessage) (any, error) {
		var req AuditRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		r, err := attest(&req)
		if err != nil || req.Binary {
			return r, err
		}
		return *r, nil
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

// HostKey returns the response-authentication key of a non-TEE domain
// (nil for TEE domains); clients pin it at setup.
func (d *Domain) HostKey() ed25519.PublicKey {
	return append(ed25519.PublicKey{}, d.hostPub...)
}

// Framework exposes the underlying framework for in-process deployments
// (examples, benchmarks measuring the sandbox-only path).
func (d *Domain) Framework() *framework.Framework { return d.fw }

// Install provisions the initial application directly (developer-side
// convenience used at deployment setup).
func (d *Domain) Install(version uint64, moduleBytes, devSig []byte) error {
	return d.fw.Install(version, moduleBytes, devSig)
}

// Close shuts down all listeners and connections.
func (d *Domain) Close() error {
	select {
	case <-d.proxyClosed:
	default:
		close(d.proxyClosed)
	}
	if d.proxyLn != nil {
		d.proxyLn.Close()
	}
	var firstErr error
	if err := d.enclaveServer.Close(); err != nil {
		firstErr = err
	}
	d.appMu.Lock()
	if d.appConn != nil {
		d.appConn.Close()
		d.appConn = nil
	}
	d.appMu.Unlock()
	if d.appLn != nil {
		d.appLn.Close()
	}
	d.proxyWG.Wait()
	d.appWG.Wait()
	return firstErr
}
