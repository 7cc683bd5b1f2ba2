package blsapp

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bls"
	"repro/internal/deployfile"
)

// driveInvoker runs requests on the fixture's sandboxes. It records the
// ceremony id of every refresh frame and whether the package was staged
// when the first frame went out, and fails the frames sent to failFrame
// (-1: none) or, with failSign, every signing request.
type driveInvoker struct {
	*memInvoker
	pending     string
	failFrame   int
	failSign    bool
	frames      int
	cids        map[[16]byte]bool
	stagedFirst bool
}

func (d *driveInvoker) Invoke(i int, req []byte) ([]byte, error) {
	if req[0] != opRefresh {
		if d.failSign {
			return nil, errTestDown
		}
		return d.memInvoker.Invoke(i, req)
	}
	f, err := DecodeRefreshFrame(req[1:])
	if err != nil {
		return nil, err
	}
	if d.frames == 0 {
		_, err := os.Stat(d.pending)
		d.stagedFirst = err == nil
	}
	d.frames++
	d.cids[f.CeremonyID] = true
	if i == d.failFrame {
		return nil, errTestDown
	}
	return d.memInvoker.Invoke(i, req)
}

// TestRefreshCoordinatorDrive walks Drive through every state a staged
// package can be in. Each case names what it pins.
func TestRefreshCoordinatorDrive(t *testing.T) {
	cases := []struct {
		name string
		// staged is the epoch of the package on disk before Drive (0:
		// none); floor and deal are Drive's arguments (deal: the
		// fixture's epoch-0 key, or nil).
		staged, floor uint64
		foreign       bool // the staged package is dealt from another deployment's key
		deal          bool
		failFrame     int
		failSign      bool
		failCommit    bool

		wantErr, wantFrames, wantResumed, wantCommit, wantStaged bool
	}{
		{name: "nothing staged, no new ceremony allowed", failFrame: -1},
		{name: "nothing staged, new ceremony", deal: true, failFrame: -1,
			wantFrames: true, wantCommit: true},
		{name: "new ceremony dealt from below the floor", floor: 1, deal: true, failFrame: -1,
			wantErr: true},
		{name: "staged at the floor", staged: 1, floor: 1, failFrame: -1},
		{name: "staged beyond floor+1", staged: 2, deal: true, failFrame: -1,
			wantErr: true, wantStaged: true},
		{name: "staged for another group key", staged: 1, foreign: true, deal: true, failFrame: -1,
			wantErr: true, wantStaged: true},
		{name: "staged at floor+1", staged: 1, deal: true, failFrame: -1,
			wantFrames: true, wantResumed: true, wantCommit: true},
		{name: "staged at floor+1, no new ceremony allowed", staged: 1, failFrame: -1,
			wantFrames: true, wantResumed: true, wantCommit: true},
		{name: "ceremony fails", deal: true, failFrame: 2,
			wantErr: true, wantFrames: true, wantStaged: true},
		{name: "probe fails", deal: true, failFrame: -1, failSign: true,
			wantErr: true, wantFrames: true, wantStaged: true},
		{name: "commit fails", deal: true, failFrame: -1, failCommit: true,
			wantErr: true, wantFrames: true, wantCommit: true, wantStaged: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newRefreshFixture(t, 2, 3, "")
			pending := filepath.Join(t.TempDir(), "refresh-pending.json")
			var staged *bls.Refresh
			if tc.staged > 0 {
				from := f.tk
				if tc.foreign {
					other, _, err := bls.ThresholdKeyGen(2, 3)
					if err != nil {
						t.Fatal(err)
					}
					from = other
				}
				for e := uint64(1); e <= tc.staged; e++ {
					var err error
					if staged, err = bls.NewRefresh(from); err != nil {
						t.Fatal(err)
					}
					from = staged.NewKey
				}
				if err := deployfile.WriteRefresh(pending, staged); err != nil {
					t.Fatal(err)
				}
			}
			inv := &driveInvoker{memInvoker: f.inv, pending: pending, failFrame: tc.failFrame,
				failSign: tc.failSign, cids: map[[16]byte]bool{}}
			var committed *bls.ThresholdKey
			resumed := 0
			c := RefreshCoordinator{Inv: inv, Signer: f.dev, GroupKey: f.tk.GroupKey, Pending: pending,
				Commit: func(k *bls.ThresholdKey) error {
					committed = k
					// The package is removed only after the commit, and it
					// is the one the frames carried.
					onDisk, err := deployfile.ReadRefresh(pending)
					if err != nil || onDisk == nil {
						t.Errorf("package not staged at commit (%v)", err)
					} else if !inv.cids[onDisk.CeremonyID] || len(inv.cids) != 1 || !onDisk.NewKey.GroupKey.Equal(&k.GroupKey) {
						t.Error("committed key is not the staged package's")
					}
					if tc.failCommit {
						return errors.New("disk full")
					}
					return nil
				},
				Resumed: func(*bls.Refresh) { resumed++ },
			}
			var deal *bls.ThresholdKey
			if tc.deal {
				deal = f.tk
			}
			err := c.Drive(tc.floor, deal)

			if (err != nil) != tc.wantErr {
				t.Fatalf("Drive error = %v, want error %v", err, tc.wantErr)
			}
			if errors.Is(err, ErrForeignRefresh) != tc.foreign {
				t.Fatalf("Drive error = %v, want ErrForeignRefresh: %v", err, tc.foreign)
			}
			if (inv.frames > 0) != tc.wantFrames {
				t.Fatalf("%d refresh frames sent, want a ceremony: %v", inv.frames, tc.wantFrames)
			}
			if (resumed > 0) != tc.wantResumed {
				t.Fatalf("Resumed called %d times, want %v", resumed, tc.wantResumed)
			}
			if (committed != nil) != tc.wantCommit {
				t.Fatalf("committed %v, want a commit: %v", committed != nil, tc.wantCommit)
			}
			left, err2 := deployfile.ReadRefresh(pending)
			if err2 != nil || (left != nil) != tc.wantStaged {
				t.Fatalf("package staged after Drive: %v (%v), want %v", left != nil, err2, tc.wantStaged)
			}
			if tc.wantFrames && !inv.stagedFirst {
				t.Fatal("a refresh frame went out before the package was staged")
			}
			if tc.wantFrames && len(inv.cids) != 1 {
				t.Fatalf("frames carried %d ceremony ids, want one", len(inv.cids))
			}
			if staged != nil && tc.wantFrames && !inv.cids[staged.CeremonyID] {
				t.Fatal("the staged package was replaced, not re-driven")
			}
			if left != nil && tc.wantFrames && !inv.cids[left.CeremonyID] {
				t.Fatal("the package left staged is not the one the frames carried")
			}
			if tc.wantErr || !tc.wantCommit {
				return
			}
			if committed.Epoch != 1 {
				t.Fatalf("committed a key at epoch %d, want 1", committed.Epoch)
			}
			for i, st := range f.states {
				if st.Epoch() != 1 {
					t.Fatalf("domain %d at epoch %d after a committed refresh", i, st.Epoch())
				}
			}
		})
	}
}
