// Package core ties the substrates together into the paper's primary
// contribution: a framework with which a single application developer
// bootstraps a publicly auditable distributed-trust deployment without
// cross-organization coordination (§3, §4.1).
//
// A Deployment consists of n trust domains (Figure 2): trust domain 0 is
// run by the developer without secure hardware; domains 1..n-1 each run
// the application-independent framework inside a simulated TEE, with
// heterogeneous vendors assigned round-robin so no single "hardware"
// vendor can compromise every domain (§3.2). Clients audit the deployment
// with the audit package and obtain publicly verifiable misbehavior
// proofs when it does not run the expected code.
package core

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/audit"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
	"repro/internal/transport"
)

// Config describes a deployment to bootstrap.
type Config struct {
	// NumDomains is the total number of trust domains including trust
	// domain 0. Must be at least 2.
	NumDomains int
	// Developer holds the update signing key; its public half is sealed
	// into every TEE.
	Developer *framework.Developer
	// Vendors is the simulated secure-hardware ecosystem; TEE domains are
	// assigned vendors round-robin. Must be non-empty.
	Vendors []*tee.Vendor
	// Roots are the pinned vendor root keys for clients.
	Roots tee.RootSet
	// AppModule is the initial application (encoded sandbox module).
	AppModule []byte
	// AppVersion is the initial version number (typically 1).
	AppVersion uint64
	// HostsFor returns the host functions for domain i; it is how
	// per-domain application state (e.g. key shares) is injected. May be
	// nil when the application needs no host functions.
	HostsFor func(i int) map[string]*sandbox.HostFunc
	// Frozen disables updates on every domain (§3.3's hardening option).
	Frozen bool
	// Dial opens the deployment's own connections to its domains and
	// WrapListener wraps every domain's RPC listener; nil means plain
	// TCP. The chaos plane passes fault.Injector's Dial and Listener.
	Dial         func(addr string, timeout time.Duration) (net.Conn, error)
	WrapListener func(net.Listener) net.Listener
}

// Deployment is a running distributed-trust deployment.
type Deployment struct {
	domains []*domain.Domain
	conns   []*transport.ManagedClient // conns[i] reaches domains[i]
	params  audit.Params
	dial    func(addr string, timeout time.Duration) (net.Conn, error) // Config.Dial
}

// Deploy bootstraps a deployment: provisions TEEs, starts every trust
// domain, and installs the signed initial application everywhere.
func Deploy(cfg Config) (*Deployment, error) {
	if cfg.NumDomains < 2 {
		return nil, errors.New("core: a distributed-trust deployment needs at least 2 domains")
	}
	if cfg.Developer == nil {
		return nil, errors.New("core: developer identity required")
	}
	if len(cfg.Vendors) == 0 {
		return nil, errors.New("core: at least one secure-hardware vendor required")
	}
	if len(cfg.AppModule) == 0 {
		return nil, errors.New("core: initial application module required")
	}

	d := &Deployment{dial: cfg.Dial}
	d.params = audit.Params{
		Roots:       cfg.Roots,
		Measurement: framework.Measure(cfg.Developer.PublicKey()),
	}

	var fwOpts []framework.Option
	if cfg.Frozen {
		fwOpts = append(fwOpts, framework.WithFrozen())
	}

	devSig := cfg.Developer.SignUpdate(cfg.AppVersion, cfg.AppModule)
	for i := 0; i < cfg.NumDomains; i++ {
		var vendor *tee.Vendor
		name := fmt.Sprintf("domain-%d", i)
		if i > 0 {
			vendor = cfg.Vendors[(i-1)%len(cfg.Vendors)]
		}
		var hosts map[string]*sandbox.HostFunc
		if cfg.HostsFor != nil {
			hosts = cfg.HostsFor(i)
		}
		dom, err := domain.Start(domain.Config{
			Name:             name,
			Vendor:           vendor,
			DeveloperKey:     cfg.Developer.PublicKey(),
			Hosts:            hosts,
			FrameworkOptions: fwOpts,
			WrapListener:     cfg.WrapListener,
		})
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("core: starting %s: %w", name, err)
		}
		if err := dom.Install(cfg.AppVersion, cfg.AppModule, devSig); err != nil {
			dom.Close()
			d.Close()
			return nil, fmt.Errorf("core: installing app on %s: %w", name, err)
		}
		d.domains = append(d.domains, dom)
		d.conns = append(d.conns, transport.DialManaged(dom.Addr(), transport.ManagedOptions{Dial: cfg.Dial}))
		d.params.Domains = append(d.params.Domains, audit.DomainInfo{
			Name:    dom.Name(),
			Addr:    dom.Addr(),
			HasTEE:  dom.HasTEE(),
			HostKey: dom.HostKey(),
		})
	}
	return d, nil
}

// NumDomains returns the number of trust domains.
func (d *Deployment) NumDomains() int { return len(d.domains) }

// Domain returns the i'th trust domain (0 = developer's own).
func (d *Deployment) Domain(i int) *domain.Domain { return d.domains[i] }

// Params returns the deployment's public verification parameters.
func (d *Deployment) Params() audit.Params { return d.params }

// AuditClient creates a fresh audit client for this deployment. It
// dials the way the deployment's own connections do (Config.Dial).
func (d *Deployment) AuditClient() *audit.Client {
	c := audit.NewClient(d.params)
	c.SetDial(d.dial)
	return c
}

// Invoke sends an application request to domain i over the network path
// (through the host proxy and in-enclave socket for TEE domains).
func (d *Deployment) Invoke(i int, request []byte) ([]byte, error) {
	if i < 0 || i >= len(d.domains) {
		return nil, fmt.Errorf("core: domain index %d out of range", i)
	}
	var resp domain.InvokeResponse
	if err := d.conns[i].Call("invoke", domain.InvokeRequest{Request: request}, &resp); err != nil {
		return nil, err
	}
	return resp.Response, nil
}

// InvokeBatch sends many application requests to domain i in one RPC
// frame. The slice is positional: result j answers requests[j], and a
// per-request failure surfaces as a nil entry with its error text in errs.
func (d *Deployment) InvokeBatch(i int, requests [][]byte) ([][]byte, []string, error) {
	if i < 0 || i >= len(d.domains) {
		return nil, nil, fmt.Errorf("core: domain index %d out of range", i)
	}
	var resp domain.InvokeBatchResponse
	if err := d.conns[i].Call("invokebatch", domain.InvokeBatchRequest{Requests: requests}, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Responses) != len(requests) {
		return nil, nil, fmt.Errorf("core: domain %d answered %d of %d batch requests", i, len(resp.Responses), len(requests))
	}
	return resp.Responses, resp.Errors, nil
}

// InvokeAll sends requests[i] to domain i for every domain in one
// ceremony round: unlike threshold signing, where any t of n answers
// suffice, a multi-party state transition (e.g. a proactive share
// refresh) needs EVERY domain, so a failure the domain ANSWERED is
// retried up to retries extra times and the first domain that still
// fails aborts the call. A transport failure aborts at once: the managed
// connection already retried what was safe (dials), and an invoke whose
// response was lost is never re-sent within the call. Partial progress
// is expected to be safe: ceremony payloads must be idempotent so an
// aborted round can simply be re-driven.
func (d *Deployment) InvokeAll(requests [][]byte, retries int) ([][]byte, error) {
	if len(requests) != len(d.domains) {
		return nil, fmt.Errorf("core: %d ceremony requests for %d domains", len(requests), len(d.domains))
	}
	out := make([][]byte, len(requests))
	for i := range requests {
		var resp []byte
		var err error
		for attempt := 0; attempt <= retries; attempt++ {
			resp, err = d.Invoke(i, requests[i])
			var answered *transport.ErrRemote
			if err == nil || !errors.As(err, &answered) {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: ceremony request to %s failed after %d attempts: %w",
				d.domains[i].Name(), retries+1, err)
		}
		out[i] = resp
	}
	return out, nil
}

// PushUpdate distributes a signed update to every domain (stage and
// activate). It returns the first error but attempts all domains, so a
// partially updated deployment — which the audit protocol will surface —
// is possible, exactly as in a real deployment.
func (d *Deployment) PushUpdate(su framework.SignedUpdate) error {
	var firstErr error
	for i := range d.domains {
		if err := d.pushUpdateTo(i, su, false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PushUpdateTo updates a single domain; stageOnly leaves it pending.
func (d *Deployment) PushUpdateTo(i int, su framework.SignedUpdate, stageOnly bool) error {
	return d.pushUpdateTo(i, su, stageOnly)
}

func (d *Deployment) pushUpdateTo(i int, su framework.SignedUpdate, stageOnly bool) error {
	req := domain.UpdateRequest{
		Version:     su.Version,
		ModuleBytes: su.ModuleBytes,
		DevSig:      su.DevSig,
		StageOnly:   stageOnly,
	}
	if err := d.conns[i].Call("update", req, nil); err != nil {
		return fmt.Errorf("core: updating %s: %w", d.domains[i].Name(), err)
	}
	return nil
}

// Activate activates a previously staged update on domain i.
func (d *Deployment) Activate(i int) error {
	if err := d.conns[i].Call("activate", struct{}{}, nil); err != nil {
		return fmt.Errorf("core: activating on %s: %w", d.domains[i].Name(), err)
	}
	return nil
}

// Close shuts down every domain and the deployment's connections.
func (d *Deployment) Close() {
	for _, c := range d.conns {
		c.Close()
	}
	for _, dom := range d.domains {
		dom.Close()
	}
}
