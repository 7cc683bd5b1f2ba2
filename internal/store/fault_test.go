package store

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDiskFaultPoisonsWAL: an error from the DiskFault hook takes the
// exact sticky-poison path a real fsync failure would — the failing
// append errors, and every later append fails fast without reaching
// the hook again (fail-stop, not flap).
func TestDiskFaultPoisonsWAL(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("injected disk error")
	s, err := Open(t.TempDir(), Options{Shards: 2, DiskFault: func(op string) error {
		if op != "wal-fsync" {
			t.Errorf("DiskFault op = %q, want wal-fsync", op)
		}
		if calls.Add(1) == 2 {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Commit(leafBatch(0, 3), nil); err != nil {
		t.Fatalf("append before the fault: %v", err)
	}
	err = s.Commit(leafBatch(3, 3), nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("append under injected disk error = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "wal fsync") {
		t.Fatalf("injected error did not take the fsync-failure path: %v", err)
	}
	after := calls.Load()
	if err := s.Commit(leafBatch(6, 3), nil); err == nil {
		t.Fatal("append after WAL poison succeeded")
	}
	if calls.Load() != after {
		t.Fatal("poisoned WAL reached the disk hook again; fail-stop should answer from the sticky error")
	}
}

// TestDiskFaultStallDelays: a hook that sleeps (a seized disk) delays
// the append but does not error — and the data survives recovery.
func TestDiskFaultStallDelays(t *testing.T) {
	const stall = 60 * time.Millisecond
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2, DiskFault: func(string) error {
		time.Sleep(stall)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Commit(leafBatch(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("append took %v, want >= %v (stall hook skipped)", d, stall)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 2)
	defer s2.Close()
	if got := len(s2.RecoveredLeaves()); got != 2 {
		t.Fatalf("recovered %d leaves, want 2", got)
	}
}
