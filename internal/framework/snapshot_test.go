package framework

import (
	"bytes"
	"testing"

	"repro/internal/aolog"
	"repro/internal/sandbox"
)

// TestSnapshotIsOneState: while updates land, every snapshot's records
// chain to its own status head, and a suffix is the tail of that same
// state. A status and a history read under two lock holds would not.
func TestSnapshotIsOneState(t *testing.T) {
	f, dev, _, _ := newTestFramework(t, false)
	mb := echoModuleBytes(t)
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	const updates = 40
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		m := sandbox.MustAssemble(echoAppSrc)
		for v := uint64(2); v <= updates; v++ {
			m.Functions[0].Code = append(m.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
			b := m.Encode()
			if err := f.Install(v, b, dev.SignUpdate(v, b)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for done := false; !done; {
		select {
		case <-finished:
			done = true // one more snapshot, of the final state
		default:
		}
		st, records, err := f.Snapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		var head aolog.Digest
		copy(head[:], st.LogHead)
		if len(records) != st.LogLen || !aolog.VerifyChain(records, head) {
			t.Fatalf("snapshot: %d records do not chain to the status head at length %d", len(records), st.LogLen)
		}
	}
	_, all, _ := f.Snapshot(0)
	_, tail, err := f.Snapshot(3)
	if err != nil || len(tail) != len(all)-3 || !bytes.Equal(tail[0], all[3]) {
		t.Fatalf("suffix from 3: %d of %d records, %v", len(tail), len(all), err)
	}
	if _, _, err := f.Snapshot(len(all) + 1); err == nil {
		t.Fatal("a suffix past the log's end was served")
	}
}
