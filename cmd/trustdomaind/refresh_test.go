package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/core"
	"repro/internal/deployfile"
	"repro/internal/framework"
	"repro/internal/sandbox"
	"repro/internal/tee"
)

// deployStates runs a 3-domain deployment over the given share states,
// as main does.
func deployStates(t *testing.T, dev *framework.Developer, states []*blsapp.ShareState) *core.Deployment {
	t.Helper()
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	var vendorList []*tee.Vendor
	for _, id := range tee.AllVendorIDs() {
		vendorList = append(vendorList, vendors[id])
	}
	dep, err := core.Deploy(core.Config{
		NumDomains: len(states),
		Developer:  dev,
		Vendors:    vendorList,
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
		HostsFor: func(i int) map[string]*sandbox.HostFunc {
			return blsapp.Hosts(states[i])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	return dep
}

// ceremonyTap passes requests to a deployment, records the ceremony id
// of every refresh frame, and fails every request to domain down (-1:
// none).
type ceremonyTap struct {
	blsapp.Invoker
	down int
	cids map[[16]byte]bool
}

func (c *ceremonyTap) Invoke(i int, req []byte) ([]byte, error) {
	if f, err := blsapp.DecodeRefreshFrame(req[1:]); err == nil {
		c.cids[f.CeremonyID] = true
	}
	if i == c.down {
		return nil, errors.New("domain down")
	}
	return c.Invoker.Invoke(i, req)
}

// wantEpoch requires every share state, the parameters file (when
// paramsPath is set) and threshold.json (with a data directory) to sit
// at epoch under key.
func wantEpoch(t *testing.T, dataDir, paramsPath string, states []*blsapp.ShareState, key *bls.ThresholdKey, epoch uint64) {
	t.Helper()
	for i, st := range states {
		if st.Epoch() != epoch {
			t.Fatalf("domain %d at epoch %d, want %d", i, st.Epoch(), epoch)
		}
	}
	var entries []*deployfile.ThresholdEntry
	if paramsPath != "" {
		file, err := deployfile.Read(paramsPath)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, file.Threshold)
	}
	if dataDir != "" {
		data, err := os.ReadFile(thresholdStatePath(dataDir))
		if err != nil {
			t.Fatal(err)
		}
		var te deployfile.ThresholdEntry
		if err := json.Unmarshal(data, &te); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, &te)
	}
	for _, te := range entries {
		got, err := te.Key()
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != epoch || !got.Commitment[1].Equal(&key.Commitment[1]) {
			t.Fatalf("public record at epoch %d, want epoch %d under the committed package's key", got.Epoch, epoch)
		}
	}
}

// TestRefreshRecoveryAtStartup crashes a durable deployment after a
// staged package reached each prefix of the domains (none, some, all)
// and restarts it: the start-up path must re-drive that package, never
// deal a new one, until every share is at the new epoch and the staged
// file is gone.
func TestRefreshRecoveryAtStartup(t *testing.T) {
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	for applied := 0; applied <= 3; applied++ {
		t.Run(fmt.Sprintf("applied=%d", applied), func(t *testing.T) {
			dir := t.TempDir()
			tk, states, err := openThresholdState(dir, 2, 3, dev.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			dep := deployStates(t, dev, states)
			ref, err := bls.NewRefresh(tk)
			if err != nil {
				t.Fatal(err)
			}
			if err := deployfile.WriteRefresh(pendingRefreshPath(dir), ref); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < applied; i++ {
				req, err := blsapp.RefreshRequestFor(ref, i, dev)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dep.Invoke(i, req); err != nil {
					t.Fatal(err)
				}
			}
			dep.Close()

			// Restart from the data directory alone. (main writes the
			// parameters file from r.cur after start-up.)
			tk, states, err = openThresholdState(dir, 2, 3, dev.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			paramsPath := filepath.Join(t.TempDir(), "deployment.json")
			r, err := newRefresher(dir, paramsPath, deployStates(t, dev, states), dev, blsapp.CeremonyDiagnostics{}, states, tk)
			if err != nil {
				t.Fatal(err)
			}
			if r.cur.Epoch != 1 || !r.cur.Commitment[1].Equal(&ref.NewKey.Commitment[1]) {
				t.Fatalf("start-up left the key at epoch %d, want the staged package's epoch 1", r.cur.Epoch)
			}
			wantEpoch(t, dir, "", states, ref.NewKey, 1)
			if _, err := os.Stat(pendingRefreshPath(dir)); !os.IsNotExist(err) {
				t.Fatalf("staged package survived its commit (%v)", err)
			}
		})
	}
}

// TestRefreshTickRedrivesFailedCeremony: a tick whose ceremony fails at
// one domain leaves its package staged, and the next tick re-drives
// that package — same ceremony id — to commit; the tick after deals a
// new one. With and without -data.
func TestRefreshTickRedrivesFailedCeremony(t *testing.T) {
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("data=%v", durable), func(t *testing.T) {
			dataDir := ""
			if durable {
				dataDir = t.TempDir()
			}
			tk, states, err := openThresholdState(dataDir, 2, 3, dev.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			dep := deployStates(t, dev, states)
			paramsPath := filepath.Join(t.TempDir(), "deployment.json")
			if err := deployfile.FromParams(dep.Params(), tk).Write(paramsPath); err != nil {
				t.Fatal(err)
			}
			r, err := newRefresher(dataDir, paramsPath, dep, dev, blsapp.CeremonyDiagnostics{}, states, tk)
			if err != nil {
				t.Fatal(err)
			}
			if !durable {
				r.coord.Pending = pendingRefreshPath(t.TempDir()) // main's private staging dir
			}

			tap := &ceremonyTap{Invoker: dep, down: 2, cids: map[[16]byte]bool{}}
			r.coord.Inv = tap
			r.tick(time.Now())
			staged, err := deployfile.ReadRefresh(r.coord.Pending)
			if err != nil || staged == nil {
				t.Fatalf("failed tick left no staged package (%v)", err)
			}
			if len(tap.cids) != 1 || !tap.cids[staged.CeremonyID] || r.cur.Epoch != 0 {
				t.Fatalf("failed tick: %d ceremony ids, key at epoch %d", len(tap.cids), r.cur.Epoch)
			}
			if lo, hi := epochRange(states); lo != 0 || hi != 1 {
				t.Fatalf("failed tick left epochs %d..%d, want a torn 0..1", lo, hi)
			}

			tap.down, tap.cids = -1, map[[16]byte]bool{}
			r.tick(time.Now())
			if len(tap.cids) != 1 || !tap.cids[staged.CeremonyID] {
				t.Fatalf("next tick drove %d ceremonies, want the staged one re-driven", len(tap.cids))
			}
			wantEpoch(t, dataDir, paramsPath, states, staged.NewKey, 1)
			if _, err := os.Stat(r.coord.Pending); !os.IsNotExist(err) {
				t.Fatalf("staged package survived its commit (%v)", err)
			}

			r.tick(time.Now())
			if r.cur.Epoch != 2 || len(tap.cids) != 2 {
				t.Fatalf("third tick: key at epoch %d, want a new package to epoch 2", r.cur.Epoch)
			}
			wantEpoch(t, dataDir, paramsPath, states, r.cur, 2)
		})
	}
}

// TestRefreshTickSurvivesFailedCommit: when the commit's file write
// fails after every domain moved, the next tick must not wedge on the
// stale public record — it drops the applied package and refreshes on.
func TestRefreshTickSurvivesFailedCommit(t *testing.T) {
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	tk, states, err := openThresholdState("", 2, 3, dev.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	paramsDir := filepath.Join(t.TempDir(), "not-yet")
	paramsPath := filepath.Join(paramsDir, "deployment.json")
	r, err := newRefresher("", paramsPath, deployStates(t, dev, states), dev, blsapp.CeremonyDiagnostics{}, states, tk)
	if err != nil {
		t.Fatal(err)
	}
	r.coord.Pending = pendingRefreshPath(t.TempDir())
	r.tick(time.Now())
	if lo, _ := epochRange(states); lo != 1 {
		t.Fatalf("ceremony left epoch %d, want 1", lo)
	}
	if _, err := os.Stat(r.coord.Pending); err != nil {
		t.Fatalf("failed commit removed the staged package (%v)", err)
	}
	if err := os.Mkdir(paramsDir, 0o700); err != nil {
		t.Fatal(err)
	}
	r.tick(time.Now())
	wantEpoch(t, "", paramsPath, states, r.cur, 2)
}

// TestRefreshTickAdoptsExternalEpoch: another coordinator (dtclient
// refresh) moves every domain. Until it commits, a tick deals nothing —
// a package dealt from the old record would fork the epoch — and once
// its parameters file lands, the next tick adopts that key and
// refreshes on from it.
func TestRefreshTickAdoptsExternalEpoch(t *testing.T) {
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	tk, states, err := openThresholdState("", 2, 3, dev.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	dep := deployStates(t, dev, states)
	paramsPath := filepath.Join(t.TempDir(), "deployment.json")
	r, err := newRefresher("", paramsPath, dep, dev, blsapp.CeremonyDiagnostics{}, states, tk)
	if err != nil {
		t.Fatal(err)
	}
	r.coord.Pending = pendingRefreshPath(t.TempDir())
	tap := &ceremonyTap{Invoker: dep, down: -1, cids: map[[16]byte]bool{}}
	r.coord.Inv = tap

	external, err := bls.NewRefresh(tk)
	if err != nil {
		t.Fatal(err)
	}
	if err := blsapp.RunRefreshCeremony(dep, external, dev, blsapp.CeremonyDiagnostics{}); err != nil {
		t.Fatal(err)
	}
	r.tick(time.Now())
	if len(tap.cids) != 0 {
		t.Fatal("tick dealt a package from a record behind the domains")
	}
	if _, err := os.Stat(r.coord.Pending); !os.IsNotExist(err) {
		t.Fatalf("tick staged a package from a record behind the domains (%v)", err)
	}

	if err := deployfile.FromParams(dep.Params(), external.NewKey).Write(paramsPath); err != nil {
		t.Fatal(err)
	}
	r.tick(time.Now())
	if r.cur.Epoch != 2 || len(tap.cids) != 1 {
		t.Fatalf("after the external commit: key at epoch %d after %d ceremonies, want epoch 2", r.cur.Epoch, len(tap.cids))
	}
	wantEpoch(t, "", paramsPath, states, r.cur, 2)
}
