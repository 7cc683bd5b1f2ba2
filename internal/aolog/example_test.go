package aolog_test

import (
	"fmt"

	"repro/internal/aolog"
)

// ExampleShardedLog walks the sharded transparency-log lifecycle: batch
// appends striped across shards, a super-root commitment, an inclusion
// proof that crosses the shard boundary, and a consistency proof that the
// log only ever grew.
func ExampleShardedLog() {
	log, err := aolog.NewShardedLog(3)
	if err != nil {
		panic(err)
	}
	var batch [][]byte
	for i := 0; i < 7; i++ {
		batch = append(batch, []byte(fmt.Sprintf("entry-%d", i)))
	}
	log.AppendBatch(batch)
	oldSize := log.Len()
	oldRoot := log.SuperRoot()

	// Inclusion: entry 5 lives in shard 5 mod 3 = 2; the proof carries
	// both the in-shard audit path and the super-tree path.
	proof, err := log.ProveInclusionAt(5, oldSize)
	if err != nil {
		panic(err)
	}
	fmt.Println("entry 5 included:", aolog.VerifyShardInclusion([]byte("entry-5"), proof, oldRoot))

	// The log grows; a consistency proof ties the old super-root to the
	// new one, shard by shard.
	log.Append([]byte("entry-7"))
	cons, err := log.ProveConsistencyBetween(oldSize, log.Len())
	if err != nil {
		panic(err)
	}
	fmt.Println("append-only growth:", aolog.VerifyShardConsistency(oldRoot, log.SuperRoot(), cons))
	// Output:
	// entry 5 included: true
	// append-only growth: true
}
