// Package deployfile serializes a deployment's public parameters — the
// exact data a client or third-party auditor needs — so the trustdomaind
// and dtclient commands can run in separate processes: vendor root keys,
// the framework measurement, domain addresses and host keys, and the
// threshold public key of the BLS application.
package deployfile

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/obsv"
	"repro/internal/store"
	"repro/internal/tee"
)

// File is the on-disk format.
type File struct {
	Measurement string            `json:"measurement"` // hex
	Roots       map[string]string `json:"roots"`       // vendor -> hex root key
	Domains     []DomainEntry     `json:"domains"`
	Threshold   *ThresholdEntry   `json:"threshold,omitempty"`

	// SLOs declares the deployment's service-level objectives. Daemons
	// feed them to the obsv SLO engine (/slo, slo_burn_rate); an empty
	// list means each daemon's built-in defaults. Kept in the deployment
	// file so the whole fleet burns against one set of objectives.
	SLOs []obsv.Objective `json:"slos,omitempty"`
}

// ValidateSLOs checks every declared objective, naming the offender.
func (f *File) ValidateSLOs() error {
	for i := range f.SLOs {
		if err := f.SLOs[i].Validate(); err != nil {
			return fmt.Errorf("deployfile: slos[%d]: %w", i, err)
		}
	}
	return nil
}

// DomainEntry describes one trust domain. Vendor and PlatformID pin a
// TEE domain to the machine its quotes must come from, and come as a
// pair (Params refuses one without the other); a file written
// before the pin existed has neither, and its TEE domains verify against
// the vendor root set alone.
type DomainEntry struct {
	Name       string `json:"name"`
	Addr       string `json:"addr"`
	HasTEE     bool   `json:"has_tee"`
	HostKey    string `json:"host_key,omitempty"` // hex
	Vendor     string `json:"vendor,omitempty"`
	PlatformID string `json:"platform_id,omitempty"`
}

// ThresholdEntry carries the BLS threshold public key material. Epoch
// pins the deployment's current refresh epoch: clients sign at this
// epoch and every proactive refresh rewrites the entry (same group key,
// rotated share keys and commitment, epoch + 1). Commitment is the
// Feldman commitment of the current dealing; refresh coordinators need
// it to derive the next epoch's rotated public data.
type ThresholdEntry struct {
	T          int      `json:"t"`
	N          int      `json:"n"`
	Epoch      uint64   `json:"epoch"`
	GroupKey   string   `json:"group_key"`            // hex compressed G2
	ShareKeys  []string `json:"share_keys"`           // hex compressed G2, index order
	Commitment []string `json:"commitment,omitempty"` // hex compressed G2, degree order
}

// FromParams builds a File from audit parameters and an optional
// threshold key.
func FromParams(p audit.Params, tk *bls.ThresholdKey) *File {
	f := &File{
		Measurement: hex.EncodeToString(p.Measurement[:]),
		Roots:       map[string]string{},
	}
	for id, key := range p.Roots {
		f.Roots[string(id)] = hex.EncodeToString(key)
	}
	for _, d := range p.Domains {
		e := DomainEntry{Name: d.Name, Addr: d.Addr, HasTEE: d.HasTEE, Vendor: string(d.Vendor), PlatformID: d.PlatformID}
		if len(d.HostKey) > 0 {
			e.HostKey = hex.EncodeToString(d.HostKey)
		}
		f.Domains = append(f.Domains, e)
	}
	if tk != nil {
		f.Threshold = ThresholdEntryFromKey(tk)
	}
	return f
}

// ThresholdEntryFromKey serializes a threshold public key (used both
// for the client-facing parameters file and for a coordinator's durable
// epoch record).
func ThresholdEntryFromKey(tk *bls.ThresholdKey) *ThresholdEntry {
	gk := tk.GroupKey.Bytes()
	te := &ThresholdEntry{T: tk.T, N: tk.N, Epoch: tk.Epoch, GroupKey: hex.EncodeToString(gk[:])}
	for i := range tk.ShareKeys {
		sk := tk.ShareKeys[i].Bytes()
		te.ShareKeys = append(te.ShareKeys, hex.EncodeToString(sk[:]))
	}
	for i := range tk.Commitment {
		cb := tk.Commitment[i].Bytes()
		te.Commitment = append(te.Commitment, hex.EncodeToString(cb[:]))
	}
	return te
}

// Params reconstructs audit parameters.
func (f *File) Params() (audit.Params, error) {
	var p audit.Params
	mb, err := hex.DecodeString(f.Measurement)
	if err != nil || len(mb) != len(p.Measurement) {
		return p, fmt.Errorf("deployfile: bad measurement")
	}
	copy(p.Measurement[:], mb)
	p.Roots = tee.RootSet{}
	for id, keyHex := range f.Roots {
		kb, err := hex.DecodeString(keyHex)
		if err != nil || len(kb) != ed25519.PublicKeySize {
			return p, fmt.Errorf("deployfile: bad root key for %s", id)
		}
		p.Roots[tee.VendorID(id)] = ed25519.PublicKey(kb)
	}
	for _, d := range f.Domains {
		info := audit.DomainInfo{Name: d.Name, Addr: d.Addr, HasTEE: d.HasTEE,
			Vendor: tee.VendorID(d.Vendor), PlatformID: d.PlatformID}
		if (d.Vendor != "" || d.PlatformID != "") && (!d.HasTEE || d.Vendor == "" || d.PlatformID == "") {
			return p, fmt.Errorf("deployfile: bad platform pin for %s", d.Name)
		}
		if d.HostKey != "" {
			kb, err := hex.DecodeString(d.HostKey)
			if err != nil || len(kb) != ed25519.PublicKeySize {
				return p, fmt.Errorf("deployfile: bad host key for %s", d.Name)
			}
			info.HostKey = ed25519.PublicKey(kb)
		}
		p.Domains = append(p.Domains, info)
	}
	return p, nil
}

// ThresholdKey reconstructs the threshold public key, or nil if absent.
func (f *File) ThresholdKey() (*bls.ThresholdKey, error) {
	if f.Threshold == nil {
		return nil, nil
	}
	return f.Threshold.Key()
}

// Key reconstructs the threshold public key from the entry.
func (te *ThresholdEntry) Key() (*bls.ThresholdKey, error) {
	tk := &bls.ThresholdKey{T: te.T, N: te.N, Epoch: te.Epoch}
	gb, err := hex.DecodeString(te.GroupKey)
	if err != nil {
		return nil, fmt.Errorf("deployfile: bad group key: %w", err)
	}
	if err := tk.GroupKey.SetBytes(gb); err != nil {
		return nil, fmt.Errorf("deployfile: bad group key: %w", err)
	}
	for i, skHex := range te.ShareKeys {
		sb, err := hex.DecodeString(skHex)
		if err != nil {
			return nil, fmt.Errorf("deployfile: bad share key %d: %w", i, err)
		}
		var pk bls.PublicKey
		if err := pk.SetBytes(sb); err != nil {
			return nil, fmt.Errorf("deployfile: bad share key %d: %w", i, err)
		}
		tk.ShareKeys = append(tk.ShareKeys, pk)
	}
	if len(tk.ShareKeys) != tk.N {
		return nil, fmt.Errorf("deployfile: %d share keys for n=%d", len(tk.ShareKeys), tk.N)
	}
	for i, cHex := range te.Commitment {
		cb, err := hex.DecodeString(cHex)
		if err != nil {
			return nil, fmt.Errorf("deployfile: bad commitment term %d: %w", i, err)
		}
		var p bls12381.G2Affine
		if err := p.SetBytes(cb); err != nil {
			return nil, fmt.Errorf("deployfile: bad commitment term %d: %w", i, err)
		}
		tk.Commitment = append(tk.Commitment, p)
	}
	if len(tk.Commitment) > 0 && len(tk.Commitment) != tk.T {
		return nil, fmt.Errorf("deployfile: %d commitment terms for t=%d", len(tk.Commitment), tk.T)
	}
	return tk, nil
}

// Write saves the file as indented JSON, atomically: refresh
// coordinators rewrite the parameters file at every epoch commit, and a
// crash must leave clients either the old epoch's key or the new one,
// never a torn file.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("deployfile: encoding: %w", err)
	}
	if err := store.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("deployfile: writing %s: %w", path, err)
	}
	return nil
}

// Read loads a params file.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deployfile: reading %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("deployfile: parsing %s: %w", path, err)
	}
	return &f, nil
}

var _ = bls12381.G2CompressedSize // keep the dependency explicit for docs
