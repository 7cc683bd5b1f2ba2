package store

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// wal is one write-ahead-log file with group-committed fsyncs.
//
// Writes are serialized by the owner (the Store appends under its own
// mutex so WAL byte order matches global leaf order — recovery depends
// on a torn tail always being a *suffix* of the append order). Syncs
// coalesce: SyncTo returns once an fsync covering the caller's bytes
// has completed, and while one fsync is in flight every other caller
// waits for it instead of issuing its own, so N concurrent appends cost
// one fsync, not N.
type wal struct {
	f      *os.File
	path   string
	noSync bool
	obs    *storeObs

	mu      sync.Mutex
	cond    *sync.Cond
	written int64 // bytes handed to the kernel
	synced  int64 // bytes known durable
	syncing bool
	err     error // sticky: a failed write or fsync poisons the WAL
}

func createWAL(path string, noSync bool, obs *storeObs) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, path: path, noSync: noSync, obs: obs}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// write appends encoded records and returns the end offset the caller
// passes to syncTo. The caller serializes write calls (Store.mu).
func (w *wal) write(buf []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("store: wal write: %w", err)
		w.cond.Broadcast()
		return 0, w.err
	}
	w.written += int64(len(buf))
	return w.written, nil
}

// syncTo blocks until bytes [0, end) are durable. Group commit: the
// first caller to find no fsync in flight becomes the leader and syncs
// everything written so far; followers wait and usually find their
// bytes already covered when the leader finishes. kind is the record
// kind the caller wrote: a leader's fsync is booked to the leaf or the
// head series by it.
func (w *wal) syncTo(end int64, kind byte) error {
	if w.noSync {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.err != nil {
			return w.err
		}
		if w.synced >= end {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.written // everything written before this fsync is covered
		w.mu.Unlock()
		// The watchdog brackets the leader's fsync (nil-safe when no
		// diagnostics are installed).
		dog := w.obs.fsyncDog.Load()
		dog.Arm()
		syncStart := time.Now()
		var err error
		// The chaos-plane disk hook runs inside the Arm/Done bracket and
		// the latency observation, so a stalling hook trips the watchdog
		// and burns the fsync SLOs like a real seized disk, and an injected
		// error takes the exact sticky-poison path a real fsync failure
		// would.
		if w.obs.diskFault != nil {
			err = w.obs.diskFault("wal-fsync")
		}
		if err == nil {
			err = w.f.Sync()
		}
		dog.Done()
		if kind == kindHead {
			w.obs.headFsyncs.Inc()
			observeDur(w.obs.headFsyncLatency, syncStart)
		} else {
			w.obs.fsyncs.Inc()
			observeDur(w.obs.fsyncLatency, syncStart)
		}
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = fmt.Errorf("store: wal fsync: %w", err)
		} else if target > w.synced {
			w.synced = target
		}
		w.cond.Broadcast()
	}
}

// close fsyncs and closes the file. It marks everything written as
// synced (the fsync covered it), so a straggler blocked in syncTo —
// e.g. an appender whose WAL got rotated out from under it by a
// checkpoint — resolves instead of fsyncing a closed fd.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if !w.noSync && w.err == nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("store: wal fsync on close: %w", err)
			w.cond.Broadcast()
			w.f.Close()
			return err
		}
	}
	w.synced = w.written
	w.cond.Broadcast()
	return w.f.Close()
}
