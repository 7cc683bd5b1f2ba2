package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func testHead(size uint64, fill byte) HeadRecord {
	return HeadRecord{Size: size, Root: bytes.Repeat([]byte{fill}, 32), Sig: []byte{fill, fill}}
}

func requireHead(t *testing.T, s *Store, want HeadRecord) {
	t.Helper()
	got, ok := s.LastHead()
	if !ok || got.Size != want.Size || !bytes.Equal(got.Root, want.Root) || !bytes.Equal(got.Sig, want.Sig) {
		t.Fatalf("last head = %+v (ok=%v), want %+v", got, ok, want)
	}
}

// TestHeadTornWALAtEveryOffset cuts the WAL at every byte offset after
// the first head record. Recovery must keep a head that covers only
// recovered leaves: the newer head once its record is whole, the older
// one before that — never a head past a lost leaf.
func TestHeadTornWALAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 3)
	h1, h2 := testHead(5, 1), testHead(10, 2)
	steps := []func() error{
		func() error { return s.Commit(leafBatch(0, 5), nil) },
		func() error { return s.PutHead(h1) },
		func() error { return s.Commit(leafBatch(5, 5), nil) },
		func() error { return s.PutHead(h2) },
		func() error { return s.Commit(leafBatch(10, 2), nil) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the WAL is what a crash leaves. Find where each head
	// record ends.
	data, err := os.ReadFile(findWAL(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	var headEnds []int64
	var off int64
	if _, err := ScanRecords(bytes.NewReader(data), func(kind byte, payload []byte) error {
		off += int64(recordHeaderSize + len(payload) + recordTrailerSize)
		if kind == kindHead {
			headEnds = append(headEnds, off)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(headEnds) != 2 || off != int64(len(data)) {
		t.Fatalf("head records end at %v in a %d-byte WAL (scanned %d)", headEnds, len(data), off)
	}
	for cut := headEnds[0]; cut <= int64(len(data)); cut++ {
		cutDir := t.TempDir()
		if err := copyTree(dir, cutDir); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(findWAL(t, cutDir), cut); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, cutDir, 3)
		leaves := len(s2.RecoveredLeaves())
		want := h1
		if cut >= headEnds[1] {
			want = h2
		}
		requireHead(t, s2, want)
		if int(want.Size) > leaves {
			t.Fatalf("cut at %d: head covers %d leaves, %d recovered", cut, want.Size, leaves)
		}
		s2.Close()
	}
}

// TestHeadSurvivesCheckpointRotationAndClose: every way the WAL is
// replaced — an explicit checkpoint, size-triggered rotations, Close,
// and the re-journal at Open — carries the last head along.
func TestHeadSurvivesCheckpointRotationAndClose(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		s := openTest(t, dir, 2)
		if err := s.Commit(leafBatch(0, 4), nil); err != nil {
			t.Fatal(err)
		}
		h := testHead(4, 4)
		if err := s.PutHead(h); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, dir, 2) // crash after the checkpoint
		requireHead(t, s2, h)
		// Open re-journaled it in turn: a second crash keeps it too.
		s3 := openTest(t, dir, 2)
		requireHead(t, s3, h)
		s3.Close()
	})
	t.Run("rotation", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{Shards: 2, NoSync: true, FlushThresholdBytes: 200})
		if err != nil {
			t.Fatal(err)
		}
		var last HeadRecord
		for i := 0; i < 40; i++ {
			if err := s.Commit(leafBatch(i, 1), nil); err != nil {
				t.Fatal(err)
			}
			last = testHead(uint64(i+1), byte(i))
			if err := s.PutHead(last); err != nil {
				t.Fatal(err)
			}
		}
		if s.obs.walRotations.Value() < 5 {
			t.Fatalf("%d WAL rotations, want several", s.obs.walRotations.Value())
		}
		s2 := openTest(t, dir, 2) // crash
		requireHead(t, s2, last)
		if got := len(s2.RecoveredLeaves()); got != 40 {
			t.Fatalf("recovered %d leaves, want 40", got)
		}
		s2.Close()
	})
	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		s := openTest(t, dir, 2)
		if err := s.Commit(leafBatch(0, 3), nil); err != nil {
			t.Fatal(err)
		}
		h := testHead(3, 3)
		if err := s.PutHead(h); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, dir, 2)
		requireHead(t, s2, h)
		if info := s2.RecoveryInfo(); !info.HasHead || info.HeadSize != 3 || info.FromWAL != 0 {
			t.Fatalf("recovery info %+v: want the head at size 3 and every leaf from segments", info)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHeadFromParentHeadJSON: a directory whose last head is only in
// head.json (as builds before heads rode the WAL left it) reopens with
// that head, re-journals it, and a head put since wins over the stale
// file, which nothing rewrites.
func TestHeadFromParentHeadJSON(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2)
	if err := s.Commit(leafBatch(0, 6), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old := testHead(6, 6)
	old.Kind = "ed25519"
	raw, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	headPath := filepath.Join(dir, "head.json")
	if err := os.WriteFile(headPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 2)
	requireHead(t, s2, old)
	// Crash, then lose head.json: the re-journaled copy in the WAL holds.
	if err := os.Rename(headPath, headPath+".bak"); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, 2)
	requireHead(t, s3, old)
	if err := os.Rename(headPath+".bak", headPath); err != nil {
		t.Fatal(err)
	}
	if err := s3.Commit(leafBatch(6, 2), nil); err != nil {
		t.Fatal(err)
	}
	newer := testHead(8, 8)
	if err := s3.PutHead(newer); err != nil {
		t.Fatal(err)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	s4 := openTest(t, dir, 2)
	defer s4.Close()
	requireHead(t, s4, newer)
	if got, err := os.ReadFile(headPath); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("head.json changed (%v)", err)
	}
}

// TestHeadDedupWritesNothing: re-putting the last (size, root) adds no
// record and no fsync.
func TestHeadDedupWritesNothing(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Commit(leafBatch(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	h := testHead(2, 2)
	if err := s.PutHead(h); err != nil {
		t.Fatal(err)
	}
	bytesBefore, syncsBefore := s.wal.written, s.obs.headFsyncs.Value()
	if err := s.PutHead(h); err != nil {
		t.Fatal(err)
	}
	if s.wal.written != bytesBefore || s.obs.headFsyncs.Value() != syncsBefore {
		t.Fatal("re-putting the same head wrote or synced")
	}
}

// TestHeadFsyncsBookedApart: a fsync led by a head record counts in the
// head series, one led by a leaf append in the leaf series.
func TestHeadFsyncsBookedApart(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Commit(leafBatch(i, 1), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.PutHead(testHead(uint64(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	o := s.obs
	if o.fsyncs.Value() != 3 || o.fsyncLatency.Count() != 3 || o.headFsyncs.Value() != 3 || o.headFsyncLatency.Count() != 3 {
		t.Fatalf("leaf fsyncs %d (%d timed), head fsyncs %d (%d timed); want 3 of each",
			o.fsyncs.Value(), o.fsyncLatency.Count(), o.headFsyncs.Value(), o.headFsyncLatency.Count())
	}
}

// TestHeadDiskFaultPoisons: an injected error on a head's fsync takes
// the path a failed leaf fsync takes — PutHead fails, and so does every
// later call, without reaching the disk hook again.
func TestHeadDiskFaultPoisons(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("injected disk error")
	s, err := Open(t.TempDir(), Options{Shards: 2, DiskFault: func(op string) error {
		if op != "wal-fsync" {
			t.Errorf("DiskFault op = %q, want wal-fsync", op)
		}
		if calls.Add(1) == 2 { // the first fsync is the leaf append's
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Commit(leafBatch(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	err = s.PutHead(testHead(2, 2))
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "wal fsync") {
		t.Fatalf("PutHead under an injected disk error = %v, want the fsync-failure path", err)
	}
	after := calls.Load()
	if err := s.PutHead(testHead(2, 3)); err == nil {
		t.Fatal("PutHead after the poison succeeded")
	}
	if err := s.Commit(leafBatch(2, 1), nil); err == nil {
		t.Fatal("append after the poison succeeded")
	}
	if calls.Load() != after {
		t.Fatal("a poisoned store reached the disk hook again")
	}
}

// TestHeadRacesCheckpoints puts heads while other goroutines append
// through size-triggered checkpoints: whatever interleaving, the head
// last put is the one a crash recovers, and it covers recovered leaves.
func TestHeadRacesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, NoSync: true, FlushThresholdBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 60
	done := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			var err error
			for i := 0; i < per && err == nil; i++ {
				err = s.Commit(leafBatch(wk*1000+i, 1), nil)
			}
			done <- err
		}(wk)
	}
	var last HeadRecord
	for i, running := 0, workers; running > 0; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running--
		default:
		}
		last = testHead(uint64(s.Len()), byte(i))
		if err := s.PutHead(last); err != nil {
			t.Fatal(err)
		}
	}
	if s.obs.checkpoints.Value() == 0 {
		t.Fatal("no checkpoint raced the heads")
	}
	s2 := openTest(t, dir, 4) // crash
	defer s2.Close()
	requireHead(t, s2, last)
	if got := len(s2.RecoveredLeaves()); got != workers*per {
		t.Fatalf("recovered %d leaves, want %d", got, workers*per)
	}
}
