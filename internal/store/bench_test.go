package store

import (
	"fmt"
	"testing"

	"repro/internal/aolog"
)

// benchBatch is the gossip-frame shape of the monitor hot path: one
// group-committed WAL fsync covers a whole SubmitBatch.
const (
	benchBatchLeaves = 2048
	benchLeafBytes   = 512
)

func benchPayloads(start int) [][]byte {
	out := make([][]byte, benchBatchLeaves)
	for i := range out {
		p := make([]byte, benchLeafBytes)
		copy(p, fmt.Sprintf("bench-leaf-%09d", start+i))
		out[i] = p
	}
	return out
}

// BenchmarkPersistentAppend measures the durable append path exactly as
// the monitor drives it: hash into the sharded Merkle log AND journal
// the batch through the WAL with a real fsync per batch (group commit).
// Compare against BenchmarkInMemoryAppend: the delta is purely the
// batch fsync, so the ratio is governed by the device's durable write
// bandwidth — within ~2x of in-memory on NVMe-class storage, wider on
// slow/virtualized filesystems (DESIGN.md §6 reports both columns).
func BenchmarkPersistentAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	log, err := aolog.NewShardedLog(4)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchBatchLeaves * benchLeafBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloads := benchPayloads(i * benchBatchLeaves)
		if err := s.Commit(payloads, nil); err != nil {
			b.Fatal(err)
		}
		log.AppendBatch(payloads)
		_ = log.SuperRoot()
	}
}

// BenchmarkInMemoryAppend is the baseline: the same hashing work with
// no durability.
func BenchmarkInMemoryAppend(b *testing.B) {
	log, err := aolog.NewShardedLog(4)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchBatchLeaves * benchLeafBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.AppendBatch(benchPayloads(i * benchBatchLeaves))
		_ = log.SuperRoot()
	}
}

// BenchmarkStoreRecovery measures Open (segment scan + WAL replay +
// Merkle rebuild) on a 100k-leaf store — the startup cost a restarted
// monitord pays.
func BenchmarkStoreRecovery(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Shards: 4, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	const total = 100_000
	for i := 0; i < total; i += benchBatchLeaves {
		n := benchBatchLeaves
		if i+n > total {
			n = total - i
		}
		if err := s.Commit(benchPayloads(i)[:n], nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(dir, Options{Shards: 4, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		leaves := s2.RecoveredLeaves()
		if len(leaves) != total {
			b.Fatalf("recovered %d leaves", len(leaves))
		}
		log, err := aolog.OpenShardedLog(4, leaves, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = log.SuperRoot()
		if err := s2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
