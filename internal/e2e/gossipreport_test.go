package e2e

import (
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/gossip"
	"repro/internal/transport"
)

// forkProof returns a same-size equivocation proof against a fresh BLS
// key: two heads at one size over different roots, both signed by it.
func forkProof(t *testing.T, source string) (*gossip.EquivocationProof, *bls.PublicKey) {
	t.Helper()
	sk, pk, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	pkb := pk.Bytes()
	return &gossip.EquivocationProof{
		Source:   source,
		SourcePK: pkb[:],
		A:        aolog.SignHeadBLS(sk, 4, aolog.Digest{1}),
		B:        aolog.SignHeadBLS(sk, 4, aolog.Digest{2}),
	}, pk
}

// TestMonitordGossipReport drives monitord's slashing path, the
// gossipreport kind, on a real process started with -slashable. A valid
// proof against the pinned key becomes the log's next leaf; a replay gets
// the same index and does not grow the log; a proof against a key outside
// -slashable and a malformed body are refused and leave the log as it
// was.
func TestMonitordGossipReport(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	tmp := t.TempDir()
	monitordBin := buildDaemon(t, tmp, "monitord")
	mint := newEnvelopeMint(t)
	paramsPath := filepath.Join(tmp, "deployment.json")
	mint.writeParams(t, paramsPath)

	proof, pinned := forkProof(t, "peer")
	if err := gossip.VerifyEquivocationProof(proof); err != nil {
		t.Fatalf("fixture proof does not verify offline: %v", err)
	}
	pinnedBytes := pinned.Bytes()
	monRPC, monMetrics := freePort(t), freePort(t)
	startDaemon(t, filepath.Join(tmp, "monitord.log"), monitordBin,
		"-params", paramsPath, "-listen", monRPC, "-metrics", monMetrics,
		"-name", "mon", "-slashable", hex.EncodeToString(pinnedBytes[:]))
	waitReady(t, monMetrics)
	mc, err := transport.Dial(monRPC)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	logSize := func() int {
		t.Helper()
		var info struct {
			Size int `json:"size"`
		}
		if err := mc.Call("info", struct{}{}, &info); err != nil {
			t.Fatalf("info: %v", err)
		}
		return info.Size
	}
	type reply struct {
		LogIndex int `json:"log_index"`
	}

	size := mint.submit(t, mc, 2)
	var first reply
	if err := mc.Call("gossipreport", proof, &first); err != nil {
		t.Fatalf("gossipreport of a valid proof against a -slashable key: %v", err)
	}
	if first.LogIndex != size {
		t.Fatalf("gossipreport log_index = %d, want %d (the next leaf)", first.LogIndex, size)
	}
	if got := logSize(); got != size+1 {
		t.Fatalf("log size after the report = %d, want %d", got, size+1)
	}

	var replay reply
	if err := mc.Call("gossipreport", proof, &replay); err != nil {
		t.Fatalf("gossipreport replay: %v", err)
	}
	if replay.LogIndex != first.LogIndex {
		t.Fatalf("replay log_index = %d, want %d", replay.LogIndex, first.LogIndex)
	}

	stranger, _ := forkProof(t, "stranger")
	var refused reply
	if err := mc.Call("gossipreport", stranger, &refused); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("gossipreport against a key outside -slashable answered %+v, %v; want a refusal", refused, err)
	}
	if err := mc.Call("gossipreport", "not a proof", &refused); err == nil {
		t.Fatalf("gossipreport with a malformed body answered %+v", refused)
	}
	if got := logSize(); got != size+1 {
		t.Fatalf("log size after a replay and two refusals = %d, want %d", got, size+1)
	}
}
