package store

import (
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// storeObs holds the storage engine's internal instruments. They exist
// from Open (so the WAL and segment shards can record into them without
// nil checks on every path that matters) and are surfaced on a daemon's
// registry via Store.RegisterMetrics — the component-owns-instruments
// pattern: the hot path never touches a registry.
type storeObs struct {
	appendBatches  obsv.Counter
	appendedLeaves obsv.Counter

	fsyncs       obsv.Counter // WAL fsyncs actually issued (group-commit leaders)
	fsyncLatency *obsv.Histogram

	walRotations  obsv.Counter
	segmentRolls  obsv.Counter
	checkpoints   obsv.Counter
	checkpointLat *obsv.Histogram

	snapshots   obsv.Counter
	snapshotLat *obsv.Histogram

	// Diagnosis hooks, installed (or not) by SetDiagnostics after Open.
	// Loaded atomically on the WAL sync path; nil means no-op — the
	// flight recorder and watchdog are both nil-safe.
	flight   atomic.Pointer[obsv.FlightRecorder]
	fsyncDog atomic.Pointer[obsv.Watchdog]
	// diskFault is the chaos-plane hook (Options.DiskFault), consulted
	// before each WAL fsync. Set once in Open before any concurrency, so
	// a plain field is safe.
	diskFault func(op string) error
}

func newStoreObs() *storeObs {
	return &storeObs{
		fsyncLatency:  obsv.NewHistogram(nil),
		checkpointLat: obsv.NewHistogram(nil),
		snapshotLat:   obsv.NewHistogram(nil),
	}
}

// observeDur records d into h; split out so call sites stay one line.
func observeDur(h *obsv.Histogram, start time.Time) { h.ObserveDuration(time.Since(start)) }

// SetDiagnostics installs the flight recorder and the WAL-fsync stall
// watchdog. Call after Open, before traffic; either may be nil.
func (s *Store) SetDiagnostics(fr *obsv.FlightRecorder, fsyncDog *obsv.Watchdog) {
	s.obs.flight.Store(fr)
	s.obs.fsyncDog.Store(fsyncDog)
}

// record emits a flight event if a recorder is installed.
func (o *storeObs) record(kind, detail string, value uint64) {
	o.flight.Load().Record("store", kind, detail, value, obsv.TraceContext{})
}

// RegisterMetrics exposes the store's instruments on reg under store_*
// names. Call once per registry; the store must outlive scrapes.
func (s *Store) RegisterMetrics(reg *obsv.Registry) {
	o := s.obs
	reg.RegisterCounter("store_append_batches_total", "AppendLeaves calls that reached the WAL", &o.appendBatches)
	reg.RegisterCounter("store_appended_leaves_total", "leaves made durable", &o.appendedLeaves)
	reg.RegisterCounter("store_wal_fsyncs_total", "WAL fsyncs issued (group-commit leaders only)", &o.fsyncs)
	reg.RegisterHistogram("store_wal_fsync_seconds", "WAL fsync latency", o.fsyncLatency)
	reg.RegisterCounter("store_wal_rotations_total", "WAL files rotated at checkpoints", &o.walRotations)
	reg.RegisterCounter("store_segment_rolls_total", "segment files rolled at the size cap", &o.segmentRolls)
	reg.RegisterCounter("store_checkpoints_total", "checkpoints settling WAL leaves into segments", &o.checkpoints)
	reg.RegisterHistogram("store_checkpoint_seconds", "checkpoint duration (appends block for it)", o.checkpointLat)
	reg.RegisterCounter("store_snapshots_total", "derived-state snapshots written", &o.snapshots)
	reg.RegisterHistogram("store_snapshot_seconds", "snapshot write duration", o.snapshotLat)
	reg.GaugeFunc("store_leaves", "durable leaf count", func() float64 {
		return float64(s.Len())
	})
	reg.GaugeFunc("store_wal_bytes", "bytes in the active WAL since the last rotation", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.walBytes)
	})
	reg.GaugeFunc("store_pending_leaves", "leaves journaled but not yet settled into segments", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pending))
	})
}
