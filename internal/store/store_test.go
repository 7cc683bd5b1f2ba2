package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func leafBatch(start, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%06d-padding-padding-padding", start+i))
	}
	return out
}

func openTest(t *testing.T, dir string, shards int) *Store {
	t.Helper()
	s, err := Open(dir, Options{Shards: shards, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4)
	want := leafBatch(0, 100)
	if err := s.Commit(want[:37], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(want[37:], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 4)
	defer s2.Close()
	got := s2.RecoveredLeaves()
	if len(got) != len(want) {
		t.Fatalf("recovered %d leaves, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("leaf %d mismatch", i)
		}
	}
	info := s2.RecoveryInfo()
	if info.Leaves != 100 {
		t.Fatalf("recovery info leaves = %d", info.Leaves)
	}
	// Close flushed everything into segments, so nothing replays from
	// the WAL.
	if info.FromWAL != 0 || info.FromSegments != 100 {
		t.Fatalf("recovery split = %d segments / %d wal, want 100/0", info.FromSegments, info.FromWAL)
	}
}

func TestRecoverFromWALWithoutClose(t *testing.T) {
	// Simulated crash: the store is never closed or checkpointed, so
	// every leaf lives only in the WAL.
	dir := t.TempDir()
	s := openTest(t, dir, 3)
	want := leafBatch(0, 25)
	if err := s.Commit(want, nil); err != nil {
		t.Fatal(err)
	}
	// No Close: reopen from the files as they are.
	s2 := openTest(t, dir, 3)
	defer s2.Close()
	got := s2.RecoveredLeaves()
	if len(got) != 25 {
		t.Fatalf("recovered %d leaves, want 25", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("leaf %d mismatch", i)
		}
	}
	if info := s2.RecoveryInfo(); info.FromWAL != 25 {
		t.Fatalf("recovered %d from WAL, want 25", info.FromWAL)
	}
}

func TestCheckpointRotationAndSegmentRoll(t *testing.T) {
	// Tiny thresholds force many checkpoints and segment rolls.
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2, NoSync: true, FlushThresholdBytes: 256, SegmentMaxBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	want := leafBatch(0, 200)
	for i := 0; i < len(want); i += 7 {
		end := i + 7
		if end > len(want) {
			end = len(want)
		}
		if err := s.Commit(want[i:end], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Multiple segment files must exist per shard.
	names, err := segmentFiles(filepath.Join(dir, "segments", "shard-000"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("expected rolled segments, got %v", names)
	}
	s2 := openTest(t, dir, 2)
	defer s2.Close()
	got := s2.RecoveredLeaves()
	if len(got) != len(want) {
		t.Fatalf("recovered %d leaves, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("leaf %d mismatch", i)
		}
	}
}

// findWAL returns the path of the single live WAL file.
func findWAL(t *testing.T, dir string) string {
	t.Helper()
	names, _, err := walFiles(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("expected one wal file, got %v", names)
	}
	return filepath.Join(dir, "wal", names[0])
}

func TestTornWALTailDropped(t *testing.T) {
	// Kill-at-random-offset: truncate the WAL mid-record at every
	// possible cut inside the final record and check recovery drops
	// exactly the torn tail, keeping the durable prefix intact.
	dir := t.TempDir()
	s := openTest(t, dir, 4)
	want := leafBatch(0, 10)
	if err := s.Commit(want, nil); err != nil {
		t.Fatal(err)
	}
	// Crash without Close; find the live WAL and its record boundaries.
	walPath := findWAL(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Byte offset where the last record starts.
	var cuts []int64
	{
		var off int64
		n := 0
		if _, err := ScanRecords(bytes.NewReader(data), func(_ byte, payload []byte) error {
			n++
			if n <= 9 {
				off += int64(recordHeaderSize + len(payload) + recordTrailerSize)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != 10 {
			t.Fatalf("wal holds %d records, want 10", n)
		}
		for c := off + 1; c < int64(len(data)); c += 7 {
			cuts = append(cuts, c)
		}
		cuts = append(cuts, int64(len(data))-1)
	}
	for _, cut := range cuts {
		cutDir := t.TempDir()
		if err := copyTree(dir, cutDir); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(findWAL(t, cutDir), cut); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, cutDir, 4)
		got := s2.RecoveredLeaves()
		if len(got) != 9 {
			t.Fatalf("cut at %d: recovered %d leaves, want 9 (torn tail dropped)", cut, len(got))
		}
		for i := 0; i < 9; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut at %d: leaf %d corrupted", cut, i)
			}
		}
		s2.Close()
	}
}

func TestCorruptWALRecordDropped(t *testing.T) {
	// A flipped byte inside the last record must fail its CRC and be
	// treated as torn tail.
	dir := t.TempDir()
	s := openTest(t, dir, 2)
	if err := s.Commit(leafBatch(0, 5), nil); err != nil {
		t.Fatal(err)
	}
	walPath := findWAL(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 2)
	defer s2.Close()
	if got := s2.RecoveredLeaves(); len(got) != 4 {
		t.Fatalf("recovered %d leaves, want 4", len(got))
	}
}

func TestShardCountMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4)
	s.Close()
	if _, err := Open(dir, Options{Shards: 8, NoSync: true}); err == nil {
		t.Fatal("shard count mismatch accepted")
	}
}

func TestHeadRoundTripAndDedup(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2)
	if _, ok := s.LastHead(); ok {
		t.Fatal("fresh store has a head")
	}
	h := HeadRecord{Size: 7, Root: []byte("rootrootrootroot"), Kind: "ed25519"}
	if err := s.PutHead(h); err != nil {
		t.Fatal(err)
	}
	// Same (size, root) with a different signature kind: no rewrite.
	h2 := h
	h2.Kind = "bls"
	if err := s.PutHead(h2); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LastHead()
	if !ok || got.Size != 7 || got.Kind != "ed25519" {
		t.Fatalf("head after dedup = %+v", got)
	}
	s.Close()
	s2 := openTest(t, dir, 2)
	defer s2.Close()
	got, ok = s2.LastHead()
	if !ok || got.Size != 7 || !bytes.Equal(got.Root, h.Root) {
		t.Fatalf("head lost across reopen: %+v ok=%v", got, ok)
	}
}

func TestSnapshotRoundTripAndCorruptionIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2)
	snap := &Snapshot{
		Size:        3,
		State:       []byte(`{"x":1}`),
		LeafDigests: [][]byte{bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32), bytes.Repeat([]byte{3}, 32)},
	}
	if err := s.Commit(leafBatch(0, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir, 2)
	got, ok := s2.Snapshot()
	if !ok || got.Size != 3 || string(got.State) != `{"x":1}` || len(got.LeafDigests) != 3 {
		t.Fatalf("snapshot did not round-trip: %+v ok=%v", got, ok)
	}
	s2.Close()

	// Flip a byte inside a digest: JSON still parses, checksum must not.
	path := filepath.Join(dir, "snapshot", "state.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte("AQEBAQ")) // base64 of leading 0x01 bytes
	if idx < 0 {
		t.Fatal("digest bytes not found in snapshot JSON")
	}
	data[idx] = 'B'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, 2)
	defer s3.Close()
	if _, ok := s3.Snapshot(); ok {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestSnapshotFromFutureIgnored(t *testing.T) {
	// A snapshot claiming more leaves than recovered (e.g. its write
	// raced a crash that lost WAL bytes under NoSync) must be dropped.
	dir := t.TempDir()
	s := openTest(t, dir, 2)
	if err := s.Commit(leafBatch(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(&Snapshot{Size: 99, State: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTest(t, dir, 2)
	defer s2.Close()
	if _, ok := s2.Snapshot(); ok {
		t.Fatal("future snapshot accepted")
	}
}

func TestLoadOrCreateKeyStable(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2)
	gen := 0
	k1, created, err := s.LoadOrCreateKey("id", func() ([]byte, error) { gen++; return []byte("secret-key-bytes"), nil })
	if err != nil || !created {
		t.Fatalf("first load: %v created=%v", err, created)
	}
	s.Close()
	s2 := openTest(t, dir, 2)
	defer s2.Close()
	k2, created, err := s2.LoadOrCreateKey("id", func() ([]byte, error) { gen++; return []byte("other"), nil })
	if err != nil || created {
		t.Fatalf("second load: %v created=%v", err, created)
	}
	if !bytes.Equal(k1, k2) || gen != 1 {
		t.Fatalf("key not stable across reopen (gen=%d)", gen)
	}
	fi, err := os.Stat(filepath.Join(dir, "keys", "id.key"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("key file mode %v, want 0600", fi.Mode().Perm())
	}
}

func TestConcurrentAppendsRecoverInOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, NoSync: true, FlushThresholdBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
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
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 4)
	defer s2.Close()
	if got := s2.RecoveredLeaves(); len(got) != workers*per {
		t.Fatalf("recovered %d leaves, want %d", len(got), workers*per)
	}
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, info.Mode())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
}
