// Command trustdomaind runs trust domains.
//
// In -demo mode (the default) it bootstraps a complete single-machine
// deployment — n trust domains with heterogeneous simulated TEEs, the
// BLS threshold application installed everywhere — writes the public
// parameters to a file for dtclient, and serves until interrupted:
//
//	trustdomaind -demo -n 3 -t 2 -params /tmp/deployment.json
//
// then, in another terminal:
//
//	dtclient -params /tmp/deployment.json audit
//	dtclient -params /tmp/deployment.json sign -msg "hello"
//	dtclient -params /tmp/deployment.json signbatch "m1" "m2" "m3"
//	dtclient -params /tmp/deployment.json refresh
//
// Every domain server accepts batched RPCs: the "invokebatch" kind runs
// many application requests in one frame (what signbatch uses to collect
// a share per message with one round trip per domain), and the transport
// layer's "_batch" kind bundles arbitrary requests (status + history in
// one frame, as batched auditors do). See DESIGN.md §3.
//
// Epoch-based proactive share refresh (DESIGN.md §7):
//
//   - -data DIR makes the key shares durable: each domain's share is an
//     epoch-tagged 0600 file under DIR, atomically replaced at every
//     refresh, and the threshold public key is recorded alongside. A
//     restarted daemon resumes at the epoch each domain durably reached
//     (a deployment killed mid-ceremony restarts with mixed epochs and
//     the interrupted ceremony is re-driven to completion on startup).
//   - -refresh D runs a proactive refresh ceremony every D (e.g. -refresh
//     1h): new Shamir sharing of the same secret, group key unchanged,
//     parameters file rewritten with the rotated share keys and the new
//     epoch pinned. Compromising t shares across different epochs then
//     wins an attacker nothing.
package main

import (
	"crypto/ed25519"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/blsapp"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/deployfile"
	"repro/internal/framework"
	"repro/internal/obsv"
	"repro/internal/sandbox"
	"repro/internal/store"
	"repro/internal/tee"
)

var (
	h      = daemon.New("trustdomaind", flag.CommandLine, false)
	logger = h.Log

	demo    = flag.Bool("demo", true, "run a complete single-machine deployment")
	n       = flag.Int("n", 3, "number of trust domains (incl. domain 0)")
	t       = flag.Int("t", 2, "signing threshold")
	params  = flag.String("params", "deployment.json", "where to write the public parameters")
	frozen  = flag.Bool("frozen", false, "disable code updates after installation")
	refresh = flag.Duration("refresh", 0, "proactively refresh the key shares at this interval (0 disables)")

	ceremonyDeadline = flag.Duration("ceremony-deadline", time.Minute, "refresh-ceremony completion watchdog deadline (0 disables)")
)

func main() {
	flag.Parse()
	if !*demo {
		h.Fatal("only -demo mode is available in this reproduction " +
			"(multi-machine mode would need a key-distribution ceremony; see DESIGN.md)")
	}
	if *t < 1 || *t > *n {
		h.Fatal("invalid threshold", "t", *t, "n", *n)
	}
	if *refresh != 0 && *refresh < time.Second {
		h.Fatal("refresh interval too small (min 1s)", "interval", *refresh)
	}
	h.Start()
	defer h.Flight.DumpOnPanic(h.DiagDir, h.Name)
	bls.RegisterMetrics(h.Reg)
	bls12381.RegisterMetrics(h.Reg)
	blsapp.RegisterCeremonyMetrics(h.Reg)

	dev, err := framework.NewDeveloper()
	if err != nil {
		h.Fatal("developer keygen", "err", err)
	}
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		h.Fatal("ecosystem", "err", err)
	}
	var vendorList []*tee.Vendor
	for _, id := range tee.AllVendorIDs() {
		vendorList = append(vendorList, vendors[id])
	}

	tk, states, err := openThresholdState(h.DataDir, *t, *n, dev.PublicKey())
	if err != nil {
		h.Fatal("opening threshold state", "err", err)
	}
	// Domain 0's share state carries the deployment's epoch series
	// (every domain advances in lockstep outside torn ceremonies).
	states[0].RegisterMetrics(h.Reg)
	for _, st := range states {
		st.SetFlightRecorder(h.Flight)
	}

	// The injector wraps every per-domain RPC listener and the
	// deployment's own connections to them, so a seeded schedule can
	// reset or partition the domains' public surface.
	dep, err := core.Deploy(core.Config{
		NumDomains: *n,
		Developer:  dev,
		Vendors:    vendorList,
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
		HostsFor: func(i int) map[string]*sandbox.HostFunc {
			return blsapp.Hosts(states[i])
		},
		Frozen:       *frozen,
		Dial:         h.Inj.Dial,
		WrapListener: h.Inj.Listener,
	})
	if err != nil {
		h.Fatal("deploy", "err", err)
	}

	// Ceremony phases land in the flight recorder, and a refresh wedged
	// on an unresponsive domain trips the watchdog and degrades the
	// daemon instead of hanging silently.
	diag := blsapp.CeremonyDiagnostics{Flight: h.Flight}
	if *ceremonyDeadline > 0 {
		diag.Watchdog = h.Dogs.Add("refresh-ceremony", *ceremonyDeadline)
	}

	// A ceremony interrupted by a crash leaves a pending file; re-drive
	// it (idempotently) before serving so every domain is back on one
	// epoch and the parameters file matches.
	if h.DataDir != "" {
		tk, err = recoverPendingCeremony(h.DataDir, dep, dev, diag, tk, states)
		if err != nil {
			h.Fatal("recovering interrupted refresh", "err", err)
		}
	}
	// Readiness requires every domain to sit on one epoch: a torn
	// ceremony (mixed epochs) is a serving deployment but not a healthy
	// one until the refresh is re-driven to convergence.
	h.Health.Set("share-epochs", func() error {
		lo, hi := states[0].Epoch(), states[0].Epoch()
		for _, st := range states[1:] {
			e := st.Epoch()
			if e < lo {
				lo = e
			}
			if e > hi {
				hi = e
			}
		}
		if lo != hi {
			return fmt.Errorf("mixed share epochs %d..%d (refresh ceremony incomplete)", lo, hi)
		}
		return nil
	})

	h.Observe([]obsv.Objective{{
		Name:      "ceremony-p99",
		Kind:      "latency",
		Series:    "blsapp_ceremony_seconds",
		Threshold: 16.777216, // 250ns << 26: the top LatencyBuckets bound
		Target:    0.99,
	}})

	file := deployfile.FromParams(dep.Params(), tk)
	if err := file.Write(*params); err != nil {
		h.Fatal("writing parameters", "err", err)
	}

	logger.Info("domains up", "n", *n, "t", *t, "epoch", tk.Epoch, "frozen", *frozen)
	for i := 0; i < dep.NumDomains(); i++ {
		d := dep.Domain(i)
		logger.Info("domain", "name", d.Name(), "addr", d.Addr(), "tee", d.HasTEE())
	}
	logger.Info("public parameters written", "path", *params)
	// Refresh frames must be developer-signed; export the signing seed
	// (0600) so `dtclient refresh` can coordinate ceremonies from
	// another process. It is exactly as sensitive as the update key.
	if err := deployfile.WriteRefreshKey(*params+".refresh-key", dev.Seed()); err != nil {
		h.Fatal("writing refresh key", "err", err)
	}
	logger.Info("refresh signing key written (keep it 0600)", "path", *params+".refresh-key")

	if *refresh != 0 {
		logger.Info("proactive share refresh enabled", "interval", *refresh)
		h.Go(func(stop <-chan struct{}) {
			runRefreshLoop(*refresh, h.DataDir, *params, dep, dev, diag, tk, stop)
		})
	}

	logger.Info("serving until SIGINT/SIGTERM")
	// The domains close last, once no ceremony can be in flight against them.
	h.Run(func() error {
		dep.Close()
		return nil
	})
}

// thresholdStatePath is where a durable deployment records the current
// threshold public key (including epoch and commitment).
func thresholdStatePath(dataDir string) string {
	return filepath.Join(dataDir, "threshold.json")
}

// pendingRefreshPath is the coordinator's pending-ceremony file.
func pendingRefreshPath(dataDir string) string {
	return filepath.Join(dataDir, "refresh-pending.json")
}

func sharePath(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("share-%d.json", i))
}

// openThresholdState deals a fresh threshold key — or, with a data
// directory that already holds one, resumes it — and returns the public
// key plus one (durable, when dataDir is set) share state per domain.
func openThresholdState(dataDir string, t, n int, devKey ed25519.PublicKey) (*bls.ThresholdKey, []*blsapp.ShareState, error) {
	if dataDir == "" {
		tk, shares, err := bls.ThresholdKeyGen(t, n)
		if err != nil {
			return nil, nil, fmt.Errorf("threshold keygen: %v", err)
		}
		states := make([]*blsapp.ShareState, n)
		for i := range states {
			states[i] = blsapp.NewShareStateWithKey(shares[i], tk, devKey)
		}
		return tk, states, nil
	}

	if err := os.MkdirAll(dataDir, 0o700); err != nil {
		return nil, nil, fmt.Errorf("data dir: %v", err)
	}
	tkPath := thresholdStatePath(dataDir)
	data, err := os.ReadFile(tkPath)
	switch {
	case err == nil:
		var te deployfile.ThresholdEntry
		if err := json.Unmarshal(data, &te); err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %v", tkPath, err)
		}
		stored, err := te.Key()
		if err != nil {
			return nil, nil, err
		}
		if stored.T != t || stored.N != n {
			return nil, nil, fmt.Errorf("data dir holds a %d-of-%d deployment, flags ask for %d-of-%d", stored.T, stored.N, t, n)
		}
		// The share files are the ground truth: an external coordinator
		// (dtclient refresh) may have advanced epochs without touching
		// threshold.json. Rebuild the current public record from the
		// shares themselves — this daemon is the dealer and holds all n
		// scalars — and cross-check it against the stored group key.
		tk, states, err := resumeFromShares(dataDir, stored, t, n, devKey)
		if err != nil {
			return nil, nil, err
		}
		return tk, states, nil
	case os.IsNotExist(err):
		tk, shares, err := bls.ThresholdKeyGen(t, n)
		if err != nil {
			return nil, nil, fmt.Errorf("threshold keygen: %v", err)
		}
		if err := writeThresholdState(dataDir, tk); err != nil {
			return nil, nil, err
		}
		states := make([]*blsapp.ShareState, n)
		for i := range states {
			states[i], err = blsapp.OpenShareState(sharePath(dataDir, i), &shares[i], tk, devKey, true)
			if err != nil {
				return nil, nil, err
			}
		}
		return tk, states, nil
	default:
		return nil, nil, fmt.Errorf("reading %s: %v", tkPath, err)
	}
}

// resumeFromShares reopens every durable share file and rebuilds the
// threshold public key for the epoch the domains durably reached. After
// a ceremony torn by a crash the files hold MIXED epochs; the public
// record is rebuilt from whichever epoch still has t consistent shares
// (preferring the older — the epoch an interrupted coordinator's
// pending package expects to find in the parameters file) and the
// deployment serves, so the coordinator can re-drive the ceremony to
// convergence. The rebuilt group key must match threshold.json: a
// mismatch means the data directory is corrupt and the daemon refuses
// to serve.
func resumeFromShares(dataDir string, stored *bls.ThresholdKey, t, n int, devKey ed25519.PublicKey) (*bls.ThresholdKey, []*blsapp.ShareState, error) {
	shares := make([]bls.KeyShare, n)
	byEpoch := map[uint64][]bls.KeyShare{}
	for i := 0; i < n; i++ {
		// Open without public context first; the real context is bound
		// below once the current commitment is rebuilt.
		st, err := blsapp.OpenShareState(sharePath(dataDir, i), nil, nil, nil, true)
		if err != nil {
			return nil, nil, err
		}
		shares[i] = st.Current()
		byEpoch[shares[i].Epoch] = append(byEpoch[shares[i].Epoch], shares[i])
	}
	var rebuildEpoch uint64
	found := false
	for epoch, group := range byEpoch {
		if len(group) < t {
			continue
		}
		if !found || epoch < rebuildEpoch {
			rebuildEpoch = epoch
			found = true
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("no epoch has %d consistent shares across %s (share epochs: %v)", t, dataDir, shareEpochs(shares))
	}
	tk, err := bls.RebuildThresholdKey(byEpoch[rebuildEpoch], t, n)
	if err != nil {
		return nil, nil, err
	}
	if !tk.GroupKey.Equal(&stored.GroupKey) {
		return nil, nil, fmt.Errorf("shares in %s rebuild a different group key than threshold.json (refusing to serve a corrupt data dir)", dataDir)
	}
	if err := writeThresholdState(dataDir, tk); err != nil {
		return nil, nil, err
	}
	states := make([]*blsapp.ShareState, n)
	for i := range states {
		states[i], err = blsapp.OpenShareState(sharePath(dataDir, i), nil, tk, devKey, true)
		if err != nil {
			return nil, nil, err
		}
	}
	if len(byEpoch) > 1 {
		logger.Warn("resumed MIXED share epochs; re-drive the interrupted refresh to converge",
			"data", dataDir, "share_epochs", fmt.Sprint(shareEpochs(shares)), "epoch", tk.Epoch)
	} else {
		logger.Info("resumed durable shares", "data", dataDir, "epoch", tk.Epoch)
	}
	return tk, states, nil
}

func shareEpochs(shares []bls.KeyShare) []uint64 {
	out := make([]uint64, len(shares))
	for i, ks := range shares {
		out[i] = ks.Epoch
	}
	return out
}

func writeThresholdState(dataDir string, tk *bls.ThresholdKey) error {
	data, err := json.MarshalIndent(deployfile.ThresholdEntryFromKey(tk), "", "  ")
	if err != nil {
		return fmt.Errorf("encoding threshold state: %v", err)
	}
	return store.WriteFileAtomic(thresholdStatePath(dataDir), append(data, '\n'), 0o644, true)
}

// recoverPendingCeremony finishes (or garbage-collects) a refresh
// ceremony the previous process died in the middle of, returning the
// current threshold key either way. Completion is judged by the
// domains' actual share epochs, not by the rebuilt public record: after
// a torn ceremony the record may already sit at the target epoch (t
// domains moved, so resumeFromShares rebuilt the NEW dealing) while a
// laggard domain is still one epoch behind — deleting the package then
// would strand it forever, so the package is re-driven whenever ANY
// domain has not reached it.
func recoverPendingCeremony(dataDir string, dep *core.Deployment, dev *framework.Developer, diag blsapp.CeremonyDiagnostics, tk *bls.ThresholdKey, states []*blsapp.ShareState) (*bls.ThresholdKey, error) {
	pending := pendingRefreshPath(dataDir)
	ref, err := deployfile.ReadRefresh(pending)
	if err != nil || ref == nil {
		return tk, err
	}
	minEpoch := states[0].Epoch()
	for _, st := range states[1:] {
		if e := st.Epoch(); e < minEpoch {
			minEpoch = e
		}
	}
	if minEpoch >= ref.NewEpoch {
		// Every domain applied it; the crash landed between the commit
		// and the pending-file removal.
		return tk, deployfile.RemoveRefresh(pending)
	}
	if ref.NewEpoch != minEpoch+1 {
		return nil, fmt.Errorf("pending ceremony targets epoch %d but a domain is still at epoch %d", ref.NewEpoch, minEpoch)
	}
	logger.Info("re-driving interrupted refresh ceremony", "epoch", ref.NewEpoch)
	if err := blsapp.RunRefreshCeremony(dep, ref, dev, diag); err != nil {
		return nil, err
	}
	if err := writeThresholdState(dataDir, ref.NewKey); err != nil {
		return nil, err
	}
	if err := deployfile.RemoveRefresh(pending); err != nil {
		return nil, err
	}
	logger.Info("refresh recovered", "epoch", ref.NewEpoch)
	return ref.NewKey, nil
}

// runRefreshLoop periodically drives a refresh ceremony and commits the
// rotated key to the data directory and the parameters file. Two
// invariants: a ceremony that failed mid-drive is re-driven with the
// SAME package on later ticks (held in memory, and on disk with -data)
// — never replaced by a fresh one for the same epoch, which would
// strand the domains that already applied it; and epochs advanced by an
// external coordinator (dtclient refresh rewrites the parameters file)
// are adopted before each tick so the loop never wedges on a stale
// notion of "current". The deployment assumes a single ACTIVE
// coordinator at a time (DESIGN.md §7).
func runRefreshLoop(every time.Duration, dataDir, paramsPath string, dep *core.Deployment, dev *framework.Developer, diag blsapp.CeremonyDiagnostics, tk *bls.ThresholdKey, stop <-chan struct{}) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	cur := tk
	var ref *bls.Refresh // in-flight package, retained across failed ticks
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		// Adopt an externally advanced epoch from the shared public
		// record (same group key, higher epoch).
		if file, err := deployfile.Read(paramsPath); err == nil {
			if pk, err := file.ThresholdKey(); err == nil && pk != nil &&
				pk.GroupKey.Equal(&cur.GroupKey) && pk.Epoch > cur.Epoch {
				logger.Info("adopting externally advanced epoch", "epoch", pk.Epoch, "path", paramsPath)
				cur = pk
			}
		}
		// A retained or durable package that no longer targets cur+1 is
		// obsolete (the epoch moved under it).
		if ref != nil && ref.NewEpoch != cur.Epoch+1 {
			ref = nil
		}
		if ref == nil && dataDir != "" {
			var err error
			ref, err = deployfile.ReadRefresh(pendingRefreshPath(dataDir))
			if err != nil {
				logger.Warn("refresh", "err", err)
				continue
			}
			if ref != nil && ref.NewEpoch != cur.Epoch+1 {
				if err := deployfile.RemoveRefresh(pendingRefreshPath(dataDir)); err != nil {
					logger.Warn("refresh", "err", err)
				}
				ref = nil
			}
		}
		if ref == nil {
			next, err := bls.NewRefresh(cur)
			if err != nil {
				logger.Warn("refresh", "err", err)
				continue
			}
			// Durable-intent first: a crash mid-ceremony must find the
			// exact package on disk so the restart can re-drive it.
			if dataDir != "" {
				if err := deployfile.WriteRefresh(pendingRefreshPath(dataDir), next); err != nil {
					logger.Warn("refresh", "err", err)
					continue
				}
			}
			ref = next
		}
		if err := blsapp.RunRefreshCeremony(dep, ref, dev, diag); err != nil {
			logger.Warn("refresh ceremony failed; re-driving the same package next tick", "epoch", ref.NewEpoch, "err", err)
			continue
		}
		if dataDir != "" {
			if err := writeThresholdState(dataDir, ref.NewKey); err != nil {
				logger.Warn("refresh", "err", err)
				continue
			}
		}
		file := deployfile.FromParams(dep.Params(), ref.NewKey)
		if err := file.Write(paramsPath); err != nil {
			logger.Warn("refresh", "err", err)
			continue
		}
		if dataDir != "" {
			if err := deployfile.RemoveRefresh(pendingRefreshPath(dataDir)); err != nil {
				logger.Warn("refresh", "err", err)
			}
		}
		cur = ref.NewKey
		ref = nil
		logger.Info("shares refreshed (group key unchanged)", "epoch", cur.Epoch)
	}
}
