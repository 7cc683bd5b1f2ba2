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

// Deployment is a running distributed-trust deployment. It embeds the
// Client it reaches its own domains with.
type Deployment struct {
	*Client // nil until every domain is up
	domains []*domain.Domain
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
	params := audit.Params{
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
		vendorID, platform := dom.Platform()
		params.Domains = append(params.Domains, audit.DomainInfo{
			Name:       dom.Name(),
			Addr:       dom.Addr(),
			HasTEE:     dom.HasTEE(),
			HostKey:    dom.HostKey(),
			Vendor:     vendorID,
			PlatformID: platform,
		})
	}
	d.Client = NewClient(params, transport.ManagedOptions{Dial: cfg.Dial})
	return d, nil
}

// Domain returns the i'th trust domain (0 = developer's own).
func (d *Deployment) Domain(i int) *domain.Domain { return d.domains[i] }

// AuditClient creates a fresh audit client for this deployment. It
// dials the way the deployment's own connections do (Config.Dial).
func (d *Deployment) AuditClient() *audit.Client {
	c := audit.NewClient(d.Params())
	c.SetDial(d.dial)
	return c
}

// Close shuts down every domain and the deployment's connections.
func (d *Deployment) Close() {
	if d.Client != nil {
		d.Client.Close()
	}
	for _, dom := range d.domains {
		dom.Close()
	}
}
