package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// Snapshot is a point-in-time capture of state *derived* from the first
// Size leaves: an opaque blob the owning subsystem serializes (the
// monitor stores per-domain observation indexes, alerts, and the
// slashing ledger) plus the cached leaf digests of that prefix, so
// recovery rebuilds the Merkle interior without rehashing leaf
// payloads. Snapshots are an optimization, never the source of truth:
// a missing or corrupt snapshot only means recovery replays all leaves.
type Snapshot struct {
	Size        int             `json:"size"`
	State       json.RawMessage `json:"state"`
	LeafDigests [][]byte        `json:"leaf_digests,omitempty"`
	// Checksum detects bit rot that JSON decoding alone would miss —
	// a flipped byte inside a digest still decodes. Computed over
	// (Size, State, LeafDigests); a mismatch discards the snapshot.
	Checksum uint32 `json:"checksum"`
}

func (s *Snapshot) computeChecksum() uint32 {
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], uint64(s.Size))
	c := crc32.Update(0, crcTable, sz[:])
	c = crc32.Update(c, crcTable, s.State)
	for _, d := range s.LeafDigests {
		c = crc32.Update(c, crcTable, d)
	}
	return c
}

// HeadRecord is the last signed tree head: the recovery invariant is
// that the recovered log's super-root at Size equals Root, proving the
// durable log contains everything the node ever signed for. The
// signature is informative (the commitment is size+root). Kind is set
// only in files written while the monitor had two head keys; nothing
// writes or interprets it now.
type HeadRecord struct {
	Size uint64 `json:"size"`
	Root []byte `json:"root"`
	Sig  []byte `json:"sig,omitempty"`
	Kind string `json:"kind,omitempty"`
}

const (
	snapshotFile = "state.json"
	headFile     = "head.json"
)

// WriteSnapshot atomically replaces the current snapshot.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	if snap == nil || snap.Size < 0 {
		return errors.New("store: invalid snapshot")
	}
	start := time.Now()
	cp := *snap
	cp.Checksum = cp.computeChecksum()
	data, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	path := filepath.Join(s.dir, "snapshot", snapshotFile)
	if err := writeFileAtomic(path, data, 0o644, !s.opts.NoSync); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	s.mu.Lock()
	s.snap = &cp
	s.mu.Unlock()
	s.obs.snapshots.Inc()
	observeDur(s.obs.snapshotLat, start)
	return nil
}

// Snapshot returns the snapshot loaded at Open (or written since), if a
// valid one exists.
func (s *Store) Snapshot() (*Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap == nil {
		return nil, false
	}
	return s.snap, true
}

// decodeSnapshot parses and integrity-checks snapshot bytes. Any
// failure returns nil: the caller falls back to full replay.
func decodeSnapshot(data []byte) *Snapshot {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil
	}
	if snap.Size < 0 || len(snap.LeafDigests) > snap.Size {
		return nil
	}
	if snap.Checksum != snap.computeChecksum() {
		return nil
	}
	return &snap
}

func loadSnapshot(dir string) *Snapshot {
	data, err := os.ReadFile(filepath.Join(dir, "snapshot", snapshotFile))
	if err != nil {
		return nil
	}
	return decodeSnapshot(data)
}

// PutHead durably records the last signed tree head before it is served
// to anyone. Re-signing the same (size, root) — a head asked for again
// before the log grew — is a no-op.
func (s *Store) PutHead(h HeadRecord) error {
	s.mu.Lock()
	if s.head != nil && s.head.Size == h.Size && string(s.head.Root) == string(h.Root) {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	data, err := json.Marshal(&h)
	if err != nil {
		return fmt.Errorf("store: encoding head: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, headFile), data, 0o644, !s.opts.NoSync); err != nil {
		return fmt.Errorf("store: writing head: %w", err)
	}
	s.mu.Lock()
	cp := h
	s.head = &cp
	s.mu.Unlock()
	return nil
}

// LastHead returns the most recently persisted signed head, if any.
func (s *Store) LastHead() (HeadRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == nil {
		return HeadRecord{}, false
	}
	return *s.head, true
}

func loadHead(dir string) *HeadRecord {
	data, err := os.ReadFile(filepath.Join(dir, headFile))
	if err != nil {
		return nil
	}
	var h HeadRecord
	if err := json.Unmarshal(data, &h); err != nil {
		return nil
	}
	return &h
}

// LoadOrCreateKey returns the contents of keys/<name>.key, generating
// and durably writing it via gen on first use. created reports whether
// this call minted the key. This is how a node's tree-head identity
// survives restarts.
func (s *Store) LoadOrCreateKey(name string, gen func() ([]byte, error)) (data []byte, created bool, err error) {
	return LoadOrCreateKeyFile(filepath.Join(s.dir, "keys", name+".key"), !s.opts.NoSync, gen)
}

// LoadOrCreateKeyFile is the standalone form for consumers without a
// full Store (the gossip witness keeps only a journal plus a key file).
func LoadOrCreateKeyFile(path string, sync bool, gen func() ([]byte, error)) ([]byte, bool, error) {
	if data, err := os.ReadFile(path); err == nil {
		if len(data) == 0 {
			return nil, false, fmt.Errorf("store: key file %s is empty", path)
		}
		return data, false, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, false, err
	}
	data, err := gen()
	if err != nil {
		return nil, false, err
	}
	if err := writeFileAtomic(path, data, 0o600, sync); err != nil {
		return nil, false, fmt.Errorf("store: writing key %s: %w", path, err)
	}
	return data, true, nil
}
