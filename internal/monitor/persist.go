package monitor

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/gossip"
	"repro/internal/store"
)

// OpenOptions configure a persistent monitor.
type OpenOptions struct {
	// Shards is the public log's stripe count (DefaultShards when zero).
	// Fixed at directory creation; reopening with a different count is
	// an error.
	Shards int
	// SnapshotEvery is how many appended leaves may accumulate before
	// the derived state (observation indexes, alerts, slashing ledger)
	// is snapshotted; recovery replays at most this many leaves through
	// the derived-state machinery. Default 8192; negative disables.
	SnapshotEvery int
	// NoSync skips fsyncs in the underlying store (tests/benchmarks).
	NoSync bool
	// DiskFault is the chaos-plane disk hook, consulted before every WAL
	// fsync (op "wal-fsync"); an error it returns poisons the WAL exactly
	// like a real fsync failure. fault.Injector.DiskFault matches this
	// signature. Nil in any real deployment (daemons gate it behind
	// -debug-hooks).
	DiskFault func(op string) error
}

// monitorState is the derived state a snapshot captures at a log size.
// Observations are stored as log indexes — the envelopes themselves ARE
// the log leaves, so recovery re-decodes them from the recovered log
// instead of storing every envelope twice.
type monitorState struct {
	PerDom     map[string][]int    `json:"per_dom"`
	Alerts     []audit.Misbehavior `json:"alerts"`
	Slashed    map[string]int      `json:"slashed"`
	LogSources []string            `json:"log_sources"`
}

// Open creates or recovers a persistent monitor rooted at dir. The
// tree-head identity is durable: the BLS head key is minted on first
// open and reloaded afterwards, so witness frontiers built against this
// monitor survive its restarts. Recovery loads the latest snapshot,
// replays the WAL tail of the log through the derived-state machinery,
// and refuses to serve unless the recovered super-root reproduces the
// last signed head.
func Open(dir string, params audit.Params, opts *OpenOptions) (*Monitor, error) {
	var o OpenOptions
	if opts != nil {
		o = *opts
	}
	if o.Shards == 0 {
		o.Shards = DefaultShards
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 8192
	}
	st, err := store.Open(dir, store.Options{Shards: o.Shards, NoSync: o.NoSync, DiskFault: o.DiskFault})
	if err != nil {
		return nil, fmt.Errorf("monitor: opening store: %w", err)
	}

	blsBytes, _, err := st.LoadOrCreateKey("bls", func() ([]byte, error) {
		sk, _, err := bls.GenerateKey()
		if err != nil {
			return nil, err
		}
		return sk.Bytes(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("monitor: BLS head key: %w", err)
	}
	blsKey, err := bls.SecretKeyFromBytes(blsBytes)
	if err != nil {
		return nil, fmt.Errorf("monitor: BLS head key file: %w", err)
	}

	leaves := st.RecoveredLeaves()

	// Snapshot: cached leaf digests feed the log rebuild; the state blob
	// seeds derived state so only the tail needs replay. Either part
	// failing to decode just widens the replay.
	var (
		digests    []aolog.Digest
		snapState  *monitorState
		replayFrom int
	)
	if snap, ok := st.Snapshot(); ok && snap.Size <= len(leaves) {
		ok := true
		ds := make([]aolog.Digest, len(snap.LeafDigests))
		for i, raw := range snap.LeafDigests {
			if len(raw) != aolog.DigestSize {
				ok = false
				break
			}
			copy(ds[i][:], raw)
		}
		if ok {
			digests = ds
		}
		ms := new(monitorState)
		if err := json.Unmarshal(snap.State, ms); err == nil {
			snapState = ms
			replayFrom = snap.Size
		}
	}

	log, err := aolog.OpenShardedLog(o.Shards, leaves, digests)
	if err != nil {
		return nil, fmt.Errorf("monitor: rebuilding log: %w", err)
	}

	// Recovery invariant: everything this monitor ever signed a head
	// for must be in the recovered log, bit for bit. Leaves are WAL'd
	// before the in-memory log advances, so an honest crash can never
	// trip this; tripping it means the directory lost or changed data
	// and serving would fork the log.
	if h, ok := st.LastHead(); ok {
		if int(h.Size) > log.Len() {
			return nil, fmt.Errorf("monitor: recovered log has %d leaves but the last signed head covers %d — refusing to fork", log.Len(), h.Size)
		}
		root, err := log.SuperRootAt(int(h.Size))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(root[:], h.Root) {
			return nil, fmt.Errorf("monitor: recovered super-root at size %d does not match the last signed head — refusing to fork", h.Size)
		}
	}

	m := &Monitor{
		params:        params,
		log:           log,
		blsKey:        blsKey,
		perDom:        make(map[string][]Observation),
		slashed:       make(map[string]int),
		logSources:    make(map[string]bool),
		store:         st,
		snapshotEvery: o.SnapshotEvery,
	}
	m.snapDone = sync.NewCond(&m.mu)

	if snapState != nil {
		if err := m.restoreState(snapState, leaves); err != nil {
			// Stale or undecodable snapshot state: rebuild everything
			// from the leaves instead.
			m.perDom = make(map[string][]Observation)
			m.alerts = nil
			m.slashed = make(map[string]int)
			m.logSources = make(map[string]bool)
			replayFrom = 0
		}
	}
	for g := replayFrom; g < len(leaves); g++ {
		if err := m.replayLeaf(g, leaves[g]); err != nil {
			return nil, fmt.Errorf("monitor: replaying leaf %d: %w", g, err)
		}
	}
	m.sinceSnap = len(leaves) - replayFrom
	// The monitor's own key is always a registered slashing target.
	kb := blsKey.PublicKey().Bytes()
	m.logSources[hex.EncodeToString(kb[:])] = true
	return m, nil
}

// restoreState applies a snapshot's derived state, re-decoding observed
// envelopes from the recovered leaves.
func (m *Monitor) restoreState(ms *monitorState, leaves [][]byte) error {
	for name, idxs := range ms.PerDom {
		obs := make([]Observation, 0, len(idxs))
		for _, idx := range idxs {
			if idx < 0 || idx >= len(leaves) {
				return fmt.Errorf("monitor: snapshot observation index %d out of range", idx)
			}
			var env audit.AttestedStatusEnvelope
			if err := json.Unmarshal(leaves[idx], &env); err != nil {
				return fmt.Errorf("monitor: snapshot observation %d undecodable: %w", idx, err)
			}
			obs = append(obs, Observation{Envelope: env, LogIndex: idx})
		}
		m.perDom[name] = obs
	}
	m.alerts = append([]audit.Misbehavior(nil), ms.Alerts...)
	for fp, idx := range ms.Slashed {
		m.slashed[fp] = idx
	}
	for _, key := range ms.LogSources {
		m.logSources[key] = true
	}
	return nil
}

// replayLeaf re-applies one logged payload to the derived state. The
// payload was fully verified before it was ever logged, so replay skips
// the expensive quote/signature checks; only the cheap measurement
// comparison is redone to reconstruct wrong-measurement alerts.
func (m *Monitor) replayLeaf(idx int, payload []byte) error {
	var probe struct {
		Resp     *json.RawMessage `json:"resp"`
		SourcePK []byte           `json:"source_pk"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		return err
	}
	switch {
	case probe.Resp != nil:
		var env audit.AttestedStatusEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return err
		}
		name := env.Resp.Domain
		var proof *audit.Misbehavior
		if env.Resp.Quote != nil && env.Resp.Quote.Measurement != m.params.Measurement {
			proof = &audit.Misbehavior{
				Kind:    audit.MisbehaviorWrongMeasurement,
				Domain:  name,
				StatusA: &env,
			}
		} else {
			for i := range m.perDom[name] {
				prev := &m.perDom[name][i].Envelope
				if p := contradiction(prev, &env, name); p != nil {
					proof = p
					break
				}
			}
		}
		if proof != nil {
			m.alerts = append(m.alerts, *proof)
		}
		m.perDom[name] = append(m.perDom[name], Observation{Envelope: env, LogIndex: idx})
		return nil
	case len(probe.SourcePK) > 0:
		var p gossip.EquivocationProof
		if err := json.Unmarshal(payload, &p); err != nil {
			return err
		}
		m.slashed[p.Fingerprint()] = idx
		m.alerts = append(m.alerts, audit.Misbehavior{
			Kind:   audit.MisbehaviorLogEquivocation,
			Domain: p.Source,
			Gossip: &p,
		})
		return nil
	default:
		return errors.New("unrecognized log payload")
	}
}

// appendDurable journals payloads before the in-memory log advances, so
// anything the monitor acknowledges (and anything a signed head covers)
// is already on disk. Caller holds m.mu.
func (m *Monitor) appendDurable(payloads [][]byte) error {
	if m.store == nil {
		return nil
	}
	return m.store.AppendLeaves(payloads)
}

// maybeSnapshotLocked schedules a derived-state snapshot every
// snapshotEvery appended leaves. The capture (an O(n) copy of indexes
// and digests) happens under m.mu, but the expensive part — JSON
// encoding and the fsync'd file write — runs in a background goroutine
// so submissions and tree-head RPCs are not stalled behind it. At most
// one write is in flight; while one is, the counter keeps accumulating
// and the next batch retries. Caller holds m.mu.
func (m *Monitor) maybeSnapshotLocked(appended int) {
	if m.store == nil || m.snapshotEvery <= 0 {
		return
	}
	m.sinceSnap += appended
	if m.sinceSnap < m.snapshotEvery || m.snapWriting {
		return
	}
	ms, digests, err := m.buildSnapshotLocked()
	if err != nil {
		m.setPersistErrLocked(err)
		return
	}
	m.snapWriting = true
	m.sinceSnap = 0
	st := m.store
	go func() {
		err := encodeAndWriteSnapshot(st, ms, digests)
		m.mu.Lock()
		m.snapWriting = false
		if m.snapDone != nil {
			m.snapDone.Broadcast()
		}
		if err != nil {
			m.setPersistErrLocked(err)
		}
		m.mu.Unlock()
	}()
}

// buildSnapshotLocked captures a consistent copy of the derived state
// (cheap: index slices, map copy, digest array). Caller holds m.mu.
func (m *Monitor) buildSnapshotLocked() (*monitorState, []aolog.Digest, error) {
	size := m.log.Len()
	ms := &monitorState{
		PerDom:  make(map[string][]int, len(m.perDom)),
		Alerts:  append([]audit.Misbehavior(nil), m.alerts...),
		Slashed: make(map[string]int, len(m.slashed)),
	}
	for name, obs := range m.perDom {
		idxs := make([]int, len(obs))
		for i, o := range obs {
			idxs[i] = o.LogIndex
		}
		ms.PerDom[name] = idxs
	}
	for fp, idx := range m.slashed {
		ms.Slashed[fp] = idx
	}
	for key := range m.logSources {
		ms.LogSources = append(ms.LogSources, key)
	}
	ds, err := m.log.LeafDigests(size)
	if err != nil {
		return nil, nil, err
	}
	return ms, ds, nil
}

// encodeAndWriteSnapshot does the heavy half outside any monitor lock.
func encodeAndWriteSnapshot(st *store.Store, ms *monitorState, digests []aolog.Digest) error {
	state, err := json.Marshal(ms)
	if err != nil {
		return fmt.Errorf("monitor: encoding snapshot state: %w", err)
	}
	raw := make([][]byte, len(digests))
	for i := range digests {
		d := digests[i]
		raw[i] = d[:]
	}
	return st.WriteSnapshot(&store.Snapshot{Size: len(digests), State: state, LeafDigests: raw})
}

// writeSnapshotLocked captures and writes synchronously — the shutdown
// path. Caller holds m.mu.
func (m *Monitor) writeSnapshotLocked() error {
	ms, digests, err := m.buildSnapshotLocked()
	if err != nil {
		return err
	}
	return encodeAndWriteSnapshot(m.store, ms, digests)
}

// persistHeadLocked records a just-signed head before it is served, so
// recovery can verify the durable log against it. Caller holds m.mu.
func (m *Monitor) persistHeadLocked(size uint64, root aolog.Digest, sig []byte) error {
	if m.store == nil {
		return nil
	}
	return m.store.PutHead(store.HeadRecord{Size: size, Root: root[:], Sig: sig})
}

// RecoveryInfo reports what Open reconstructed (zero value for an
// in-memory monitor).
func (m *Monitor) RecoveryInfo() (store.RecoveryInfo, bool) {
	if m.store == nil {
		return store.RecoveryInfo{}, false
	}
	return m.store.RecoveryInfo(), true
}

// Close flushes a final snapshot and releases the store. In-memory
// monitors (New/NewSharded) close trivially.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return nil
	}
	// An in-flight background snapshot must finish first, or its stale
	// write could land after (and clobber) the final one.
	for m.snapWriting {
		m.snapDone.Wait()
	}
	var firstErr error
	if m.snapshotEvery > 0 && m.sinceSnap > 0 {
		if err := m.writeSnapshotLocked(); err != nil {
			firstErr = err
		}
	}
	if err := m.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr == nil && m.persistErr != nil {
		firstErr = m.persistErr
	}
	m.store = nil
	return firstErr
}
