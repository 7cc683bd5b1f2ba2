package monitor

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/tee"
)

// oracleContradiction is the relation as the monitor stated it when it
// kept every envelope: the reference the key scan is checked against.
func oracleContradiction(a, b *audit.AttestedStatusEnvelope, name string) *audit.Misbehavior {
	sa, sb := a.Resp.Status, b.Resp.Status
	switch {
	case sa.LogLen == sb.LogLen && !bytes.Equal(sa.LogHead, sb.LogHead):
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorEquivocation, Domain: name,
			StatusA: a, StatusB: b,
		}
	case sa.LogLen == sb.LogLen && sa.Version != sb.Version,
		sa.Version == sb.Version && sa.LogLen != sb.LogLen:
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorRollback, Domain: name,
			StatusA: a, StatusB: b,
		}
	case sb.Counter > sa.Counter && (sb.LogLen < sa.LogLen || sb.Version < sa.Version):
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorRollback, Domain: name,
			StatusA: a, StatusB: b,
		}
	case sa.Counter > sb.Counter && (sa.LogLen < sb.LogLen || sa.Version < sb.Version):
		return &audit.Misbehavior{
			Kind: audit.MisbehaviorRollback, Domain: name,
			StatusA: b, StatusB: a,
		}
	}
	return nil
}

// oracle is the full-envelope loop: every accepted envelope is kept and
// each new one is compared with all of them, earliest first.
type oracle struct {
	measurement tee.Measurement
	perDom      map[string][]audit.AttestedStatusEnvelope
	alerts      []audit.Misbehavior
}

func (o *oracle) submit(env *audit.AttestedStatusEnvelope) *audit.Misbehavior {
	name := env.Resp.Domain
	var proof *audit.Misbehavior
	if env.Resp.Quote != nil && env.Resp.Quote.Measurement != o.measurement {
		proof = &audit.Misbehavior{Kind: audit.MisbehaviorWrongMeasurement, Domain: name, StatusA: env}
	} else {
		for i := range o.perDom[name] {
			if p := oracleContradiction(&o.perDom[name][i], env, name); p != nil {
				proof = p
				break
			}
		}
	}
	if proof != nil {
		o.alerts = append(o.alerts, *proof)
	}
	o.perDom[name] = append(o.perDom[name], *env)
	return proof
}

// statusMint fabricates verifiable status envelopes with arbitrary
// contents: "d1" is attested by a sim-TEE enclave (or, for a wrong
// measurement, an impostor enclave of the same vendor), "d2" is signed
// by its pinned host key.
type statusMint struct {
	params   audit.Params
	enclave  *tee.Enclave
	impostor *tee.Enclave
	hostPriv ed25519.PrivateKey
}

func newStatusMint(t testing.TB) *statusMint {
	t.Helper()
	v, err := tee.NewVendor(tee.VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	good := tee.MeasureCode([]byte("framework"))
	enclave, err := v.Provision("host", good)
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := v.Provision("host", tee.MeasureCode([]byte("impostor")))
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &statusMint{
		params: audit.Params{
			Roots:       tee.RootSet{tee.VendorSimSGX: v.RootKey()},
			Measurement: good,
			Domains: []audit.DomainInfo{
				{Name: "d1", HasTEE: true},
				{Name: "d2", HostKey: pub},
			},
		},
		enclave: enclave, impostor: impostor, hostPriv: priv,
	}
}

// envelope attests st for name and returns it as monitord would decode
// it off the wire.
func (s *statusMint) envelope(t testing.TB, name string, st framework.Status, nonce string, wrongMeasurement bool) *audit.AttestedStatusEnvelope {
	t.Helper()
	rd := framework.StatusReportData([]byte(nonce), &st)
	resp := domain.StatusResponse{Domain: name, Status: st}
	switch {
	case name == "d2":
		resp.HostKey = s.hostPriv.Public().(ed25519.PublicKey)
		resp.HostSig = ed25519.Sign(s.hostPriv, rd[:])
	case wrongMeasurement:
		resp.Quote = s.impostor.GenerateQuote(rd)
	default:
		resp.Quote = s.enclave.GenerateQuote(rd)
	}
	raw, err := json.Marshal(&audit.AttestedStatusEnvelope{Nonce: []byte(nonce), Resp: resp})
	if err != nil {
		t.Fatal(err)
	}
	env := new(audit.AttestedStatusEnvelope)
	if err := json.Unmarshal(raw, env); err != nil {
		t.Fatal(err)
	}
	return env
}

// adversarialStream draws n envelopes over both domains from seed:
// honest progressions, random and reordered counters, lengths, versions
// and heads (nil and empty heads both occur), exact duplicates of
// earlier envelopes and wrong-measurement attestations.
func adversarialStream(t testing.TB, s *statusMint, seed int64, n int) []*audit.AttestedStatusEnvelope {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	heads := [][]byte{nil, {}, bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32), bytes.Repeat([]byte{3}, 32)}
	honestHead := func(logLen int) []byte { return bytes.Repeat([]byte{byte(0x80 + logLen)}, 32) }
	type progress struct {
		logLen  int
		counter uint64
	}
	honest := map[string]*progress{"d1": {}, "d2": {}}
	var out []*audit.AttestedStatusEnvelope
	for i := 0; i < n; i++ {
		name := []string{"d1", "d2"}[rng.Intn(2)]
		p := honest[name]
		var st framework.Status
		switch r := rng.Intn(10); {
		case r < 2 && len(out) > 0: // an exact duplicate of an earlier envelope
			out = append(out, out[rng.Intn(len(out))])
			continue
		case r < 6: // the honest domain moves on
			p.counter++
			if rng.Intn(3) == 0 {
				p.logLen++
			}
			st = framework.Status{Version: uint64(p.logLen), LogLen: p.logLen, LogHead: honestHead(p.logLen), Counter: p.counter}
			if p.logLen == 0 && rng.Intn(2) == 0 {
				st.LogHead = heads[rng.Intn(2)] // nil or empty: the same head
			}
		case r < 8: // a random status near the honest one
			st = framework.Status{
				Version: uint64(max(0, p.logLen+rng.Intn(3)-1)),
				LogLen:  max(0, p.logLen+rng.Intn(3)-1),
				Counter: uint64(max(0, int(p.counter)+rng.Intn(5)-2)),
			}
			st.LogHead = honestHead(st.LogLen)
			if rng.Intn(3) == 0 {
				st.LogHead = heads[rng.Intn(len(heads))]
			}
		default: // anything
			st = framework.Status{
				Version: uint64(rng.Intn(5)),
				LogLen:  rng.Intn(5),
				LogHead: heads[rng.Intn(len(heads))],
				Counter: uint64(rng.Intn(12)),
			}
		}
		wrong := name == "d1" && rng.Intn(12) == 0
		out = append(out, s.envelope(t, name, st, fmt.Sprintf("n%d-%d", seed, i), wrong))
	}
	return out
}

// batches cuts a stream into SubmitBatch frames of 1..6 envelopes, so
// contradictions land both across and inside batches.
func batches(seed int64, envs []*audit.AttestedStatusEnvelope) [][]*audit.AttestedStatusEnvelope {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out [][]*audit.AttestedStatusEnvelope
	for len(envs) > 0 {
		k := min(len(envs), 1+rng.Intn(6))
		out = append(out, envs[:k])
		envs = envs[k:]
	}
	return out
}

// checkAgainstOracle submits frames to m and the same envelopes to o,
// requiring the same log index and deep-equal alert (kind, domain,
// StatusA, StatusB) for every envelope.
func checkAgainstOracle(t *testing.T, m *Monitor, o *oracle, frames [][]*audit.AttestedStatusEnvelope) {
	t.Helper()
	for _, frame := range frames {
		base := m.Len()
		for j, got := range m.SubmitBatch(frame) {
			if got.Err != nil {
				t.Fatalf("envelope rejected: %v", got.Err)
			}
			want := o.submit(frame[j])
			if got.LogIndex != base+j {
				t.Fatalf("log index %d, want %d", got.LogIndex, base+j)
			}
			if !reflect.DeepEqual(got.Alert, want) {
				t.Fatalf("at log index %d: alert\n  %s\nwant\n  %s", got.LogIndex, describe(got.Alert), describe(want))
			}
		}
	}
}

func describe(p *audit.Misbehavior) string {
	if p == nil {
		return "none"
	}
	st := func(e *audit.AttestedStatusEnvelope) string {
		if e == nil {
			return "-"
		}
		s := e.Resp.Status
		return fmt.Sprintf("%s{len %d v %d ctr %d head %x nonce %s}", e.Resp.Domain, s.LogLen, s.Version, s.Counter, s.LogHead, e.Nonce)
	}
	return fmt.Sprintf("%s A=%s B=%s", p.Kind, st(p.StatusA), st(p.StatusB))
}

func requireAlertsEqual(t *testing.T, m *Monitor, o *oracle) {
	t.Helper()
	got := m.Alerts()
	if len(got) != len(o.alerts) {
		t.Fatalf("%d alerts, oracle has %d", len(got), len(o.alerts))
	}
	for i := range got {
		if !reflect.DeepEqual(&got[i], &o.alerts[i]) {
			t.Fatalf("alert %d: %s, oracle %s", i, describe(&got[i]), describe(&o.alerts[i]))
		}
	}
}

// TestOracleAdversarialStreams: the key scan raises the same alerts as
// the full-envelope loop over seeded adversarial streams.
func TestOracleAdversarialStreams(t *testing.T) {
	s := newStatusMint(t)
	kinds := map[audit.MisbehaviorKind]int{}
	for seed := int64(1); seed <= 12; seed++ {
		m := New(s.params, mustKey(t))
		o := &oracle{measurement: s.params.Measurement, perDom: map[string][]audit.AttestedStatusEnvelope{}}
		checkAgainstOracle(t, m, o, batches(seed, adversarialStream(t, s, seed, 120)))
		requireAlertsEqual(t, m, o)
		for _, a := range o.alerts {
			kinds[a.Kind]++
		}
	}
	// The streams must actually exercise every verdict the scan can reach.
	for _, k := range []audit.MisbehaviorKind{audit.MisbehaviorEquivocation, audit.MisbehaviorRollback, audit.MisbehaviorWrongMeasurement} {
		if kinds[k] == 0 {
			t.Errorf("no %s alert in any stream", k)
		}
	}
}

// TestOracleRestartMidStream: a monitor restarted part-way through a
// stream — from a snapshot, and from the WAL with no snapshot — carries
// on raising exactly the oracle's alerts.
func TestOracleRestartMidStream(t *testing.T) {
	s := newStatusMint(t)
	for _, tc := range []struct {
		name      string
		snapEvery int
		close     bool // Close writes a final snapshot; without it the reopen replays the WAL
	}{
		{"snapshot", 1 << 20, true},
		{"wal-replay", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(21); seed <= 24; seed++ {
				dir := t.TempDir()
				open := func() *Monitor {
					m, err := Open(dir, s.params, &OpenOptions{Shards: 4, SnapshotEvery: tc.snapEvery, NoSync: true})
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				o := &oracle{measurement: s.params.Measurement, perDom: map[string][]audit.AttestedStatusEnvelope{}}
				frames := batches(seed, adversarialStream(t, s, seed, 90))
				cut := len(frames) / 2
				m := open()
				checkAgainstOracle(t, m, o, frames[:cut])
				if tc.close {
					if err := m.Close(); err != nil {
						t.Fatal(err)
					}
				}
				m = open()
				info, _ := m.RecoveryInfo()
				if tc.close != (info.SnapshotSize > 0) {
					t.Fatalf("recovery %+v: want snapshot=%v", info, tc.close)
				}
				requireAlertsEqual(t, m, o)
				checkAgainstOracle(t, m, o, frames[cut:])
				requireAlertsEqual(t, m, o)
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestContradictionNilAndEmptyHead: a nil and an empty LogHead are the
// same head to the relation, in envelopes and in interned keys.
func TestContradictionNilAndEmptyHead(t *testing.T) {
	s := newStatusMint(t)
	m := New(s.params, mustKey(t))
	a := s.envelope(t, "d1", framework.Status{Counter: 1}, "a", false)
	b := s.envelope(t, "d1", framework.Status{Counter: 2, LogHead: []byte{}}, "b", false)
	if a.Resp.Status.LogHead != nil || b.Resp.Status.LogHead == nil {
		t.Fatal("fixture lost the nil/empty distinction")
	}
	if p := contradiction(a, b, "d1"); p != nil {
		t.Fatalf("nil and empty heads contradict: %s", describe(p))
	}
	for _, o := range m.SubmitBatch([]*audit.AttestedStatusEnvelope{a, b}) {
		if o.Err != nil || o.Alert != nil {
			t.Fatalf("nil vs empty head: %+v", o)
		}
	}
}

// BenchmarkSubmitAtDepth times one honest Submit against a domain that
// already has depth observations. The counter moves at every one of
// them, so each is a distinct state and the scan walks all of them: the
// worst case of the distinct-state scan, whose slope between depths is
// the per-state cost. A real domain moves its counter only when it
// activates an update.
func BenchmarkSubmitAtDepth(b *testing.B) {
	s := newStatusMint(b)
	head := func(logLen int) []byte { return bytes.Repeat([]byte{byte(logLen)}, 32) }
	for _, depth := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("obs=%dk", depth>>10), func(b *testing.B) {
			m := New(s.params, mustKey(b))
			tl := new(timeline)
			m.perDom["d1"] = tl
			for i := 0; i < depth; i++ {
				st := framework.Status{Version: uint64(i / 64), LogLen: i / 64, LogHead: head(i / 64), Counter: uint64(i)}
				tl.observe(&audit.AttestedStatusEnvelope{Resp: domain.StatusResponse{Status: st}}, i, false)
			}
			top := depth / 64
			env := s.envelope(b, "d1", framework.Status{Version: uint64(top), LogLen: top, LogHead: head(top), Counter: uint64(depth)}, "bench", false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, alert, err := m.Submit(env); err != nil || alert != nil {
					b.Fatalf("honest submit: %v %v", err, alert)
				}
				tl.logIndexes = tl.logIndexes[:depth]
			}
		})
	}
}
