package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// walHeadKind is the store's WAL record kind of a signed tree head.
const walHeadKind = 3

// checkWALHeads reads the signed-head records in monitord's WAL files
// under each data directory — the directories in the order given, the
// WAL files of one in sequence order — and checks the two invariants
// every head the monitor ever journaled must keep: signed sizes never
// decrease, and no two heads at one size differ. Pass one monitor's
// directory at successive times, e.g. a copy taken right after a crash
// and then the directory after the restart, whose fresh WAL opens with
// the re-journaled last head.
func checkWALHeads(t *testing.T, dirs ...string) {
	t.Helper()
	var heads []store.HeadRecord
	for _, dir := range dirs {
		wals, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log")) // wal-%08d.log: sorted = sequence order
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range wals {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = store.ScanRecords(f, func(kind byte, payload []byte) error {
				if kind != walHeadKind {
					return nil
				}
				var h store.HeadRecord
				if err := json.Unmarshal(payload, &h); err != nil {
					return fmt.Errorf("%s: head record: %w", path, err)
				}
				heads = append(heads, h)
				return nil
			})
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := headsMonotone(heads); err != nil {
		t.Errorf("WAL heads of %v: %v", dirs, err)
	}
}

// headsMonotone checks a sequence of journaled heads: sizes never
// decrease, and heads at one size are identical.
func headsMonotone(heads []store.HeadRecord) error {
	if len(heads) == 0 {
		return fmt.Errorf("no head records")
	}
	bySize := map[uint64]store.HeadRecord{}
	for i, h := range heads {
		if i > 0 && h.Size < heads[i-1].Size {
			return fmt.Errorf("head %d signs size %d after size %d", i, h.Size, heads[i-1].Size)
		}
		if prev, ok := bySize[h.Size]; ok && (!bytes.Equal(prev.Root, h.Root) || !bytes.Equal(prev.Sig, h.Sig)) {
			return fmt.Errorf("two different heads at size %d", h.Size)
		}
		bySize[h.Size] = h
	}
	return nil
}

// TestHeadsMonotone pins the checker itself on hand-made sequences.
func TestHeadsMonotone(t *testing.T) {
	h := func(size uint64, root byte) store.HeadRecord {
		return store.HeadRecord{Size: size, Root: bytes.Repeat([]byte{root}, 32), Sig: []byte{root}}
	}
	for _, c := range []struct {
		name  string
		heads []store.HeadRecord
		ok    bool
	}{
		{"growing", []store.HeadRecord{h(0, 0), h(1, 1), h(3, 3)}, true},
		{"re-journaled", []store.HeadRecord{h(0, 0), h(2, 2), h(2, 2), h(4, 4)}, true},
		{"empty", nil, false},
		{"shrinking", []store.HeadRecord{h(0, 0), h(3, 3), h(2, 2)}, false},
		{"forked", []store.HeadRecord{h(0, 0), h(2, 2), h(2, 9)}, false},
	} {
		if err := headsMonotone(c.heads); (err == nil) != c.ok {
			t.Errorf("%s: headsMonotone = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
}
