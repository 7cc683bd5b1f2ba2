// Package loadtest provisions the serving stack the daemons run — a
// monitor over a seeded log with a serving tier attached — in process,
// for code that needs a populated tier without booting a daemon: the
// bench/ module's per-layer probes and tamper self-test, and tests.
package loadtest

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/tee"
)

// Fixture is a fully provisioned monitor + serving tier over a seeded
// log, the same stack the daemons run.
type Fixture struct {
	Mon  *monitor.Monitor
	Tier *serve.Tier
}

// Close releases the tier (the in-memory monitor needs no teardown).
func (f *Fixture) Close() {
	if f.Tier != nil {
		f.Tier.Close()
	}
}

// NewFixture provisions a simulated enclave, installs the BLS module,
// seeds the monitor's log with leaves attested statuses, and attaches a
// serving tier.
func NewFixture(leaves int) (*Fixture, error) {
	if leaves <= 0 {
		leaves = 2048
	}
	dev, err := framework.NewDeveloper()
	if err != nil {
		return nil, err
	}
	v, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		return nil, err
	}
	enclave, err := v.Provision("host", framework.Measure(dev.PublicKey()))
	if err != nil {
		return nil, err
	}
	params := audit.Params{
		Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []audit.DomainInfo{{Name: "d1", HasTEE: true}},
	}
	tk, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		return nil, err
	}
	state := blsapp.NewShareStateWithKey(shares[0], tk, dev.PublicKey())
	fw, err := framework.New(dev.PublicKey(), enclave, blsapp.Hosts(state))
	if err != nil {
		return nil, err
	}
	mod := blsapp.ModuleBytes()
	if err := fw.Install(1, mod, dev.SignUpdate(1, mod)); err != nil {
		return nil, err
	}
	headSK, _, err := bls.GenerateKey()
	if err != nil {
		return nil, err
	}
	mon := monitor.New(params, headSK)

	// Seed the log in batches.
	const batch = 256
	for off := 0; off < leaves; off += batch {
		n := batch
		if leaves-off < n {
			n = leaves - off
		}
		envs := make([]*audit.AttestedStatusEnvelope, n)
		for i := range envs {
			nonce := []byte(fmt.Sprintf("seed-%d", off+i))
			as := fw.AttestedStatus(nonce)
			envs[i] = &audit.AttestedStatusEnvelope{
				Nonce: nonce,
				Resp:  domain.StatusResponse{Domain: "d1", Status: as.Status, Quote: as.Quote},
			}
		}
		for _, o := range mon.SubmitBatch(envs) {
			if o.Err != nil {
				return nil, o.Err
			}
		}
	}

	pkb := mon.BLSPublicKey().Bytes()
	tier, err := serve.Attach(mon, serve.Options{Source: "loadtest", SourcePK: pkb[:]})
	if err != nil {
		return nil, err
	}
	mon.SetAppendHook(tier.Kick)
	return &Fixture{Mon: mon, Tier: tier}, nil
}
