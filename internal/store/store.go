package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Record kinds shared by the WAL and segment files.
const (
	// kindLeaf (WAL): u64 big-endian global index, then the leaf bytes.
	// Carrying the index makes replay idempotent across a crash between
	// a segment flush and the WAL rotation that retires it.
	kindLeaf byte = 1
	// kindSegLeaf (segments): raw leaf bytes; local index is positional.
	kindSegLeaf byte = 2
	// kindHead (WAL): a signed tree head, the JSON of a HeadRecord. It
	// follows every leaf record it covers, so a torn tail that keeps it
	// keeps them; the last one in WAL order is the store's last head.
	kindHead byte = 3
)

// Options configure a Store.
type Options struct {
	// Shards is the stripe count of the Merkle log whose leaves this
	// store persists. Fixed at creation; a mismatch on reopen is an
	// error (the striping g -> (g mod K, g div K) is baked into the
	// segment layout).
	Shards int
	// NoSync skips every fsync. Tests and benchmarks only: a crash can
	// then lose arbitrarily much, but the file formats are unchanged.
	NoSync bool
	// FlushThresholdBytes is how large the WAL may grow before leaves
	// are checkpointed into segment files and the WAL is rotated.
	// Default 4 MiB.
	FlushThresholdBytes int64
	// SegmentMaxBytes caps one segment file. Default 64 MiB.
	SegmentMaxBytes int64
	// DiskFault, when set, is consulted before every WAL fsync with the
	// operation name ("wal-fsync"). A returned error is treated exactly
	// like a real fsync failure — sticky WAL poison, fail-stop — and a
	// hook that sleeps models a seized disk under the watchdog and the
	// fsync latency SLOs. This is the one way to stall or fail the disk:
	// the chaos plane's disk entry point (fault.Injector.DiskFault
	// matches this signature); daemons gate it behind -debug-hooks.
	DiskFault func(op string) error
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FlushThresholdBytes <= 0 {
		out.FlushThresholdBytes = 4 << 20
	}
	if out.SegmentMaxBytes <= 0 {
		out.SegmentMaxBytes = 64 << 20
	}
	return out
}

type metaFile struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// RecoveryInfo summarizes what Open reconstructed — the daemons log it
// on startup.
type RecoveryInfo struct {
	Leaves       int           // total leaves recovered
	FromSegments int           // leaves settled in segment files
	FromWAL      int           // leaves replayed from the WAL tail
	SnapshotSize int           // size of the loaded snapshot (0 = none)
	HeadSize     uint64        // size of the last persisted signed head
	HasHead      bool          // whether a signed head was on disk
	Elapsed      time.Duration // wall time spent in Open
}

// Store is the crash-safe storage engine under a monitor: leaves and
// signed heads go to an fsync-batched WAL first (group commit), leaves
// settle into per-shard segment files at checkpoints, and derived state
// rides in snapshots.
// Safe for concurrent use. The caller owns ordering: Commit assigns
// global indexes in call order under the store lock, so callers that
// also maintain an in-memory log must append to both under one lock of
// their own (monitor.Monitor does).
type Store struct {
	dir  string
	opts Options
	obs  *storeObs

	mu       sync.Mutex
	err      error // sticky: a failed WAL/segment write poisons the store
	wal      *wal
	walSeq   int
	walBytes int64
	total    int      // durable leaves
	base     int      // first global index not yet settled in segments
	pending  [][]byte // leaves [base, total), retained until checkpoint
	shards   []*segmentShard
	snap     *Snapshot
	head     *HeadRecord
	headWAL  *wal  // the WAL holding the newest journaled copy of head
	headEnd  int64 // offset in headWAL that makes that copy durable

	recovered [][]byte // all leaves, handed out once via RecoveredLeaves
	recovery  RecoveryInfo
}

// Open creates or recovers a store directory: segment scan, WAL replay
// (dropping any torn tail), snapshot and head load. The recovered
// leaves are available from RecoveredLeaves exactly once.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	o := opts.withDefaults()
	if o.Shards < 1 {
		return nil, fmt.Errorf("store: shard count %d out of range", o.Shards)
	}
	for _, sub := range []string{"", "wal", "segments", "snapshot", "keys"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	metaPath := filepath.Join(dir, "meta.json")
	if data, err := os.ReadFile(metaPath); err == nil {
		var meta metaFile
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", metaPath, err)
		}
		if meta.Shards != o.Shards {
			return nil, fmt.Errorf("store: directory has %d shards, opened with %d", meta.Shards, o.Shards)
		}
	} else if errors.Is(err, os.ErrNotExist) {
		data, _ := json.Marshal(metaFile{Version: 1, Shards: o.Shards})
		if err := writeFileAtomic(metaPath, data, 0o644, !o.NoSync); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	s := &Store{dir: dir, opts: o, obs: newStoreObs(), shards: make([]*segmentShard, o.Shards)}
	s.obs.diskFault = o.DiskFault

	// 1. Settled leaves from segment files, placed by global index.
	var leaves [][]byte
	place := func(g int, payload []byte) {
		for g >= len(leaves) {
			leaves = append(leaves, nil)
		}
		if leaves[g] == nil {
			leaves[g] = payload
		}
	}
	k := o.Shards
	fromSegments := 0
	for j := 0; j < k; j++ {
		shardDir := filepath.Join(dir, "segments", fmt.Sprintf("shard-%03d", j))
		sh, shardLeaves, err := openSegmentShard(shardDir, o.SegmentMaxBytes, o.NoSync)
		if err != nil {
			return nil, err
		}
		s.shards[j] = sh
		sh.obs = s.obs
		fromSegments += len(shardLeaves)
		for local, payload := range shardLeaves {
			place(local*k+j, payload)
		}
	}

	// 2. WAL replay over the segment state. Records carry their global
	// index, so leaves already settled are skipped and a crash between
	// flush and rotation costs nothing.
	walDir := filepath.Join(dir, "wal")
	walNames, maxSeq, err := walFiles(walDir)
	if err != nil {
		return nil, err
	}
	fromWAL := 0
	for _, name := range walNames {
		path := filepath.Join(walDir, name)
		valid, total, err := scanFile(path, func(kind byte, payload []byte) error {
			switch kind {
			case kindLeaf:
			case kindHead:
				var h HeadRecord
				if err := json.Unmarshal(payload, &h); err != nil {
					return fmt.Errorf("store: wal %s head record: %w", path, err)
				}
				s.head = &h
				return nil
			default:
				return fmt.Errorf("store: wal %s holds record kind %d", path, kind)
			}
			if len(payload) < 8 {
				return fmt.Errorf("store: wal %s leaf record too short", path)
			}
			g := int(binary.BigEndian.Uint64(payload[:8]))
			if g < 0 {
				return fmt.Errorf("store: wal %s leaf index overflow", path)
			}
			if g < len(leaves) && leaves[g] != nil {
				return nil
			}
			place(g, append([]byte(nil), payload[8:]...))
			fromWAL++
			return nil
		})
		if err != nil {
			return nil, err
		}
		_ = valid
		_ = total // torn WAL tails are simply not replayed; rotation discards them
	}

	// A gap would mean a leaf was durably acknowledged and then lost —
	// refuse to serve rather than silently fork the log.
	for g, p := range leaves {
		if p == nil {
			return nil, fmt.Errorf("store: recovered log has a gap at index %d", g)
		}
	}
	s.total = len(leaves)
	s.base = s.total
	for j := 0; j < k; j++ {
		if first := s.shards[j].count*k + j; first < s.base {
			s.base = first
		}
	}
	if s.base > s.total {
		s.base = s.total
	}
	s.pending = leaves[s.base:]
	s.recovered = leaves
	if s.head == nil {
		s.head = loadHead(dir) // a directory from before heads rode the WAL
	}

	// 3. Fresh WAL file; old files are retired at the next checkpoint.
	s.walSeq = maxSeq + 1
	w, err := createWAL(filepath.Join(walDir, walName(s.walSeq)), o.NoSync, s.obs)
	if err != nil {
		return nil, err
	}
	if !o.NoSync {
		if err := syncDir(walDir); err != nil {
			return nil, err
		}
	}
	s.wal = w
	// Pending leaves and the last head live only in the WAL files about
	// to be deleted (or in head.json); re-journal them so those files may
	// go unconditionally.
	if len(s.pending) > 0 || s.head != nil {
		buf := make([]byte, 0, 1<<16)
		for i, p := range s.pending {
			buf = appendRecord(buf, kindLeaf, leafRecord(s.base+i, p))
		}
		s.walBytes = int64(len(buf))
		kind := kindLeaf
		if s.head != nil {
			buf = append(buf, headRecord(s.head)...)
			if len(s.pending) == 0 {
				kind = kindHead
			}
		}
		end, err := s.wal.write(buf)
		if err != nil {
			return nil, err
		}
		if err := s.wal.syncTo(end, kind); err != nil {
			return nil, err
		}
		s.headWAL, s.headEnd = s.wal, end
	}
	for _, name := range walNames {
		if err := os.Remove(filepath.Join(walDir, name)); err != nil {
			return nil, err
		}
	}
	if !o.NoSync && len(walNames) > 0 {
		if err := syncDir(walDir); err != nil {
			return nil, err
		}
	}

	// 4. Derived state.
	s.snap = loadSnapshot(dir)
	if s.snap != nil && s.snap.Size > s.total {
		s.snap = nil // snapshot from a future the log never reached durably
	}

	s.recovery = RecoveryInfo{
		Leaves:       s.total,
		FromSegments: fromSegments,
		FromWAL:      fromWAL,
		Elapsed:      time.Since(start),
	}
	if s.snap != nil {
		s.recovery.SnapshotSize = s.snap.Size
	}
	if s.head != nil {
		s.recovery.HeadSize = s.head.Size
		s.recovery.HasHead = true
	}
	return s, nil
}

// RecoveredLeaves returns every leaf recovered at Open, in global
// order, transferring ownership to the caller (subsequent calls return
// nil). The store keeps only the unsettled tail for checkpointing.
func (s *Store) RecoveredLeaves() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recovered
	s.recovered = nil
	return out
}

// RecoveryInfo reports what Open reconstructed.
func (s *Store) RecoveryInfo() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Len returns the durable leaf count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func leafRecord(g int, payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(buf[:8], uint64(g))
	copy(buf[8:], payload)
	return buf
}

// Commit assigns consecutive global indexes to payloads (in call
// order) and journals them, followed by h when it is non-nil, in one
// WAL write, and returns once one fsync covers them all: a monitor
// commits a batch and the head it signed over it together, so the head
// is durable exactly when its leaves are, and a torn tail that keeps
// the head keeps them. h must cover exactly the leaves durable after
// the commit. Concurrent callers share fsyncs (group commit); the fsync
// is booked as leaf-led. The store retains the payload slices until
// they settle into segments; callers must not mutate them. A head with
// no new leaves goes through PutHead.
func (s *Store) Commit(payloads [][]byte, h *HeadRecord) error {
	if len(payloads) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return s.err
	}
	if h != nil && h.Size != uint64(s.total+len(payloads)) {
		s.mu.Unlock()
		return fmt.Errorf("store: head at size %d committed with leaves ending at %d", h.Size, s.total+len(payloads))
	}
	buf := make([]byte, 0, 1<<12)
	for i, p := range payloads {
		buf = appendRecord(buf, kindLeaf, leafRecord(s.total+i, p))
	}
	if h != nil {
		buf = append(buf, headRecord(h)...)
	}
	end, err := s.wal.write(buf)
	if err != nil {
		s.err = err
		s.mu.Unlock()
		return err
	}
	s.total += len(payloads)
	s.pending = append(s.pending, payloads...)
	s.walBytes += int64(len(buf))
	if h != nil {
		cp := *h
		s.head = &cp
		s.headWAL, s.headEnd = s.wal, end
	}
	s.obs.appendBatches.Inc()
	s.obs.appendedLeaves.Add(uint64(len(payloads)))
	needCheckpoint := s.walBytes >= s.opts.FlushThresholdBytes
	w := s.wal // a concurrent checkpoint may rotate s.wal; sync OUR file
	s.mu.Unlock()

	if err := s.sync(w, end, kindLeaf); err != nil {
		return err
	}
	if needCheckpoint {
		return s.Checkpoint()
	}
	return nil
}

// sync waits until w is durable up to end, poisoning the store if it
// cannot be made so.
func (s *Store) sync(w *wal, end int64, kind byte) error {
	if err := w.syncTo(end, kind); err != nil {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		return err
	}
	return nil
}

// Checkpoint settles WAL leaves into their shard segment files, fsyncs
// them, and rotates the WAL, carrying the last head into the new file.
// Appends block for the duration; the flush threshold bounds how much
// work that is.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.err != nil {
		return s.err
	}
	if len(s.pending) == 0 && s.walBytes == 0 {
		return nil
	}
	cpStart := time.Now()
	k := s.opts.Shards
	touched := make(map[int]bool)
	for i, payload := range s.pending {
		g := s.base + i
		j := g % k
		if g/k < s.shards[j].count {
			continue // settled by a checkpoint that crashed before rotation
		}
		if err := s.shards[j].appendLeaf(payload); err != nil {
			s.err = err
			return err
		}
		touched[j] = true
	}
	for j := range touched {
		if err := s.shards[j].sync(); err != nil {
			s.err = err
			return err
		}
	}
	// Rotation: only after the segment bytes are durable may the WAL
	// files holding those leaves disappear.
	walDir := filepath.Join(s.dir, "wal")
	oldPath := filepath.Join(walDir, walName(s.walSeq))
	s.walSeq++
	w, err := createWAL(filepath.Join(walDir, walName(s.walSeq)), s.opts.NoSync, s.obs)
	if err != nil {
		s.err = err
		return err
	}
	if !s.opts.NoSync {
		if err := syncDir(walDir); err != nil {
			s.err = err
			return err
		}
	}
	if s.head != nil {
		end, err := w.write(headRecord(s.head))
		if err == nil {
			err = w.syncTo(end, kindHead)
		}
		if err != nil {
			s.err = err
			w.close()
			return err
		}
		s.headWAL, s.headEnd = w, end
	}
	old := s.wal
	s.wal = w
	s.walBytes = 0
	s.base = s.total
	s.pending = nil
	s.obs.walRotations.Inc()
	s.obs.record("wal_rotation", "", uint64(s.walSeq))
	if err := old.close(); err != nil && s.err == nil {
		s.err = err
		return err
	}
	if err := os.Remove(oldPath); err != nil {
		s.err = err
		return err
	}
	if !s.opts.NoSync {
		if err := syncDir(walDir); err != nil {
			s.err = err
			return err
		}
	}
	s.obs.checkpoints.Inc()
	observeDur(s.obs.checkpointLat, cpStart)
	s.obs.record("checkpoint", "", uint64(s.total))
	return nil
}

// Close checkpoints and releases every file. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cpErr := s.checkpointLocked()
	var firstErr error
	if cpErr != nil {
		firstErr = cpErr
	}
	if s.wal != nil {
		if err := s.wal.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.wal = nil
	}
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		if err := sh.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.err == nil {
		s.err = errors.New("store: closed")
	}
	return firstErr
}

func walName(seq int) string {
	return fmt.Sprintf("wal-%08d.log", seq)
}

// walFiles lists wal-*.log names in sequence order plus the highest
// sequence number seen.
func walFiles(dir string) ([]string, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type walEntry struct {
		name string
		seq  int
	}
	var found []walEntry
	maxSeq := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"))
		if err != nil {
			return nil, 0, fmt.Errorf("store: bad wal name %q", name)
		}
		found = append(found, walEntry{name, seq})
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
	names := make([]string, len(found))
	for i, f := range found {
		names[i] = f.name
	}
	return names, maxSeq, nil
}
