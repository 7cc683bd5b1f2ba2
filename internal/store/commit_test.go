package store

import (
	"bytes"
	"os"
	"testing"
)

// TestCommitTornWALAtEveryOffset cuts the WAL of two leaves+head
// commits, after a head put over no leaves, at every byte. Every cut
// must reopen with a head that covers only recovered leaves: a commit's
// head record is whole only where every leaf record before it is.
func TestCommitTornWALAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 3)
	h0, h1, h2 := testHead(0, 9), testHead(5, 1), testHead(7, 2)
	if err := s.PutHead(h0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(leafBatch(0, 5), &h1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(leafBatch(5, 2), &h2); err != nil {
		t.Fatal(err)
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
	if len(headEnds) != 3 || off != int64(len(data)) {
		t.Fatalf("head records end at %v in a %d-byte WAL (scanned %d)", headEnds, len(data), off)
	}
	heads := []HeadRecord{h0, h1, h2}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		cutDir := t.TempDir()
		if err := copyTree(dir, cutDir); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(findWAL(t, cutDir), cut); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, cutDir, 3)
		leaves := len(s2.RecoveredLeaves())
		whole := 0 // head records wholly before the cut
		for whole < len(headEnds) && headEnds[whole] <= cut {
			whole++
		}
		if whole == 0 {
			if h, ok := s2.LastHead(); ok {
				t.Fatalf("cut at %d: recovered head %+v before any head record was whole", cut, h)
			}
		} else {
			requireHead(t, s2, heads[whole-1])
		}
		if h, ok := s2.LastHead(); ok && int(h.Size) > leaves {
			t.Fatalf("cut at %d: head covers %d leaves, %d recovered", cut, h.Size, leaves)
		}
		s2.Close()
	}
}

// TestCommitIsOneFsync: a leaves+head commit is one WAL write and one
// fsync, booked as leaf-led; the head is the store's last head from
// then on; a head that does not cover exactly the commit's leaves is
// refused before anything is written.
func TestCommitIsOneFsync(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		h := testHead(uint64(2*i+2), byte(i))
		if err := s.Commit(leafBatch(2*i, 2), &h); err != nil {
			t.Fatal(err)
		}
		requireHead(t, s, h)
	}
	o := s.obs
	if o.fsyncs.Value() != 3 || o.headFsyncs.Value() != 0 {
		t.Fatalf("3 commits cost %d leaf-led and %d head-led fsyncs, want 3 and 0", o.fsyncs.Value(), o.headFsyncs.Value())
	}
	written := s.wal.written
	for _, size := range []uint64{6, 9} { // the old size, one past the commit
		h := testHead(size, 7)
		if err := s.Commit(leafBatch(6, 2), &h); err == nil {
			t.Fatalf("a head at size %d committed with leaves ending at 8", size)
		}
	}
	if s.wal.written != written || s.Len() != 6 || o.fsyncs.Value() != 3 {
		t.Fatal("a refused commit wrote, grew the store or synced")
	}
	// The store is not poisoned by a refused commit.
	h := testHead(8, 8)
	if err := s.Commit(leafBatch(6, 2), &h); err != nil {
		t.Fatal(err)
	}
	requireHead(t, s, h)
}
